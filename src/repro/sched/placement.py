"""Initial placement of tasks onto rank queues.

The placement reproduces the paper's static partition exactly: origin
``o``'s tasks land on member ``o``'s queue in index order, so a
work-steal run that never steals is the static run.
"""

from __future__ import annotations

from repro.sched.tasks import Task


def initial_assignment(
    tasks: list[Task], members: tuple[int, ...]
) -> dict[int, list[str]]:
    """Map each member rank to an ordered list of task ids.

    Tasks are grouped by origin (a bootstrap chain shares intermediate
    trees, so splitting an origin across queues would force cross-rank
    result traffic for every replicate).  Origin ``o`` goes to
    ``members[o % len(members)]`` — for the usual case of one origin per
    member this *is* the static assignment.
    """
    if not members:
        raise ValueError("members must be non-empty")
    groups: dict[int, list[Task]] = {}
    for t in tasks:
        groups.setdefault(t.origin, []).append(t)
    for g in groups.values():
        g.sort(key=lambda t: t.index)
    assignment: dict[int, list[str]] = {r: [] for r in members}
    for origin in sorted(groups):
        r = members[origin % len(members)]
        assignment[r].extend(t.id for t in groups[origin])
    return assignment
