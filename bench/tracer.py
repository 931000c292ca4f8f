"""Wall-clock spans around the public callables of each repro layer.

Everything is done from the benchmark's side: class methods are patched
on the class, module functions are replaced in every loaded ``repro.*``
module whose attribute ``is`` the original (so ``from x import f`` call
sites are caught too), and :meth:`Tracer.restore` puts every original
back.  One in-memory span per call: layer, name, ``perf_counter`` start
and duration, ``thread_time`` CPU, parent span, thread.

A span's *self* time is its duration minus what its direct children on
the same thread cover, so per thread the self times of all layers add up
to the duration of that thread's root spans.  Under rank threads wall
self time includes waiting for the interpreter lock; CPU self time does
not.  A wrapper's own prologue and epilogue (~1-2 us) land in the
*parent's* self time; ``trace.overhead_ratio`` says how far to trust the
numbers.
"""

from __future__ import annotations

import importlib
import sys
import threading
from time import perf_counter, thread_time

#: layer -> ((module, class or None, names), ...).  A name that no longer
#: exists is skipped and listed in ``Tracer.missing``: a later change may
#: delete a callable without having to edit the benchmark.
TARGETS: dict[str, tuple[tuple[str, str | None, tuple[str, ...]], ...]] = {
    "cli": (("repro.cli", None, ("main", "load_alignment")),),
    "hybrid": (
        ("repro.hybrid.driver", None, ("run_hybrid_analysis",)),
        ("repro.hybrid.results", None, ("assemble_hybrid_result",)),
    ),
    "hybrid.checkpoint": (
        ("repro.hybrid.checkpoint", "CheckpointStore", ("save", "load")),
        ("repro.sched.checkpoint", "SchedJournal", ("record",)),
        ("repro.sched.checkpoint", None, ("load_journal", "load_union")),
    ),
    "runtime": (
        ("repro.runtime.backends", None, ("run_rank",)),
        ("repro.runtime.backends", "StaticBackend", ("run",)),
        ("repro.runtime.backends", "WorkStealBackend", ("run",)),
    ),
    "sched": (
        ("repro.sched.queue", "StealBoard", ("begin_stage", "next_action")),
        ("repro.sched.queue", "SchedState", ("decide",)),
        ("repro.sched.stealing", None, ("run_rank_pool",)),
    ),
    "mpi": (
        ("repro.mpi.launcher", None, ("run_spmd",)),
        ("repro.mpi.comm", "SimComm", (
            "send", "recv", "barrier", "bcast", "gather", "allgather", "allreduce",
        )),
    ),
    "threads": (
        ("repro.threads.pool", "VirtualThreadPool", (
            "run_region", "charge_region", "charge_regions",
        )),
    ),
    "search": (
        ("repro.search.searches", None, (
            "bootstrap_replicate_search", "fast_search", "slow_search",
            "thorough_search",
        )),
        ("repro.search.hillclimb", None, ("hill_climb",)),
        ("repro.search.spr", None, ("spr_round", "try_spr")),
        ("repro.search.starting_tree", None, ("parsimony_starting_tree",)),
    ),
    "likelihood.model_opt": (
        ("repro.likelihood.model_opt", None, ("optimize_model",)),
        ("repro.likelihood.cat", None, ("estimate_cat_rates",)),
    ),
    "likelihood.brlen": (
        ("repro.likelihood.brlen", None, (
            "optimize_branch_lengths", "optimize_edge", "newton_branch_length",
        )),
    ),
    "likelihood.engine": (
        ("repro.likelihood.engine", "LikelihoodEngine", (
            "__init__", "loglikelihood", "compute_down_partials",
            "compute_up_partials", "edge_loglikelihood", "insertion_loglikelihood",
            "edge_coefficients_and_derivatives", "edge_lnl_and_derivatives",
        )),
    ),
    "likelihood.plan": (
        ("repro.likelihood.plan", None, ("plan_traversal", "subtree_signatures")),
        ("repro.likelihood.plan", "CLVCache", ("probe", "get", "put")),
    ),
    # "likelihood.kernels" is filled from the kernel registry at install time.
    "likelihood.gtr": (
        ("repro.likelihood.gtr", "GTRModel", (
            "__init__", "transition_matrices", "transition_matrix_derivatives",
        )),
    ),
    "numpy.einsum": (("numpy", None, ("einsum",)),),
    "tree": (
        ("repro.tree.topology", "Tree", ("copy",)),
        ("repro.tree.newick", None, ("parse_newick", "write_newick")),
    ),
    "seq": (
        ("repro.seq.io_phylip", None, ("read_phylip",)),
        ("repro.seq.patterns", None, ("compress_alignment",)),
        ("repro.seq.bootstrap", None, ("bootstrap_pattern_weights",)),
    ),
    "obs": (
        ("repro.obs.recorder", "Recorder", (
            "span", "instant", "count", "observe", "thread_regions",
            "flush_regions",
        )),
        ("repro.obs.trace", None, ("chrome_trace",)),
        ("repro.obs.report", None, ("run_report",)),
    ),
    "bootstop": (
        ("repro.bootstop.table", "BipartitionTable", ("add_trees",)),
        ("repro.bootstop.support", None, ("map_support",)),
    ),
}

KERNEL_LAYER = "likelihood.kernels"
LAYERS = tuple(sorted([*TARGETS, KERNEL_LAYER]))

# Span record fields (a list, filled in place when the call returns).
KEY, PARENT, START, WALL, CPU, CHILD_WALL, CHILD_CPU = range(7)


# -- counters that need a look at arguments or results -------------------------

COUNTERS = ("gtr.repeats", "plan.probe_hits", "threads.regions",
            "search.moves_tried", "search.moves_accepted")


class ThreadState:
    """What the tracer keeps for one thread; only that thread writes it."""

    def __init__(self, name: str) -> None:
        self.name = name  # thread name + ident, e.g. "spmd-rank-0#1400..."
        self.stack: list[int] = []  # indices of the open spans
        self.spans: list[list] = []
        self.counts = {name: 0 for name in COUNTERS}
        self.last_move = None  # tree of the last successful try_spr
        self.gtr_seen: set = set()


def _arg(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _count_gtr_repeat(state, args, kwargs, result):
    model = args[0]
    t = _arg(args, kwargs, 1, "t")
    rates = _arg(args, kwargs, 2, "rates", 1.0)
    key = (model.rates, model.freqs, float(t).hex(),
           rates.tobytes() if hasattr(rates, "tobytes") else repr(rates))
    if key in state.gtr_seen:
        state.counts["gtr.repeats"] += 1
    else:
        state.gtr_seen.add(key)


def _count_probe_hit(state, args, kwargs, result):
    if result:
        state.counts["plan.probe_hits"] += 1


def _count_regions(state, args, kwargs, result):
    state.counts["threads.regions"] += _arg(args, kwargs, 1, "n_regions", 0)


def _count_spr_try(state, args, kwargs, result):
    # spr_round passes an accepted move's tree to the next try_spr and
    # returns it at the end, so identity with the last result means "accepted".
    if state.last_move is not None and _arg(args, kwargs, 1, "tree") is state.last_move:
        state.counts["search.moves_accepted"] += 1
    state.last_move = None
    if result is not None:
        state.last_move = result[0]
        state.counts["search.moves_tried"] += 1


def _count_spr_round(state, args, kwargs, result):
    if state.last_move is not None and result[0] is state.last_move:
        state.counts["search.moves_accepted"] += 1
    state.last_move = None


HOOKS = {
    ("likelihood.gtr", "transition_matrices"): _count_gtr_repeat,
    ("likelihood.plan", "probe"): _count_probe_hit,
    ("threads", "charge_regions"): _count_regions,
    ("search", "try_spr"): _count_spr_try,
    ("search", "spr_round"): _count_spr_round,
}


class Tracer:
    def __init__(self) -> None:
        self.keys: list[tuple[str, str]] = []  # KEY index -> (layer, name)
        self.threads: list[ThreadState] = []  # in order of first span
        self.missing: list[str] = []
        self.patched: list[tuple[object, str, object]] = []  # owner, attr, original
        self._tls = threading.local()
        self._lock = threading.Lock()

    # -- wrapping --------------------------------------------------------------

    def _enter_thread(self) -> ThreadState:
        t = threading.current_thread()
        state = self._tls.state = ThreadState(f"{t.name}#{t.ident}")
        with self._lock:
            self.threads.append(state)
        return state

    def wrap(self, fn, layer: str, name: str):
        """``fn`` with a span recorded around every call."""
        key = len(self.keys)
        self.keys.append((layer, name))
        hook = HOOKS.get((layer, name))
        tls, enter_thread = self._tls, self._enter_thread

        def traced(*args, **kwargs):
            try:
                state = tls.state
            except AttributeError:
                state = enter_thread()
            stack, spans = state.stack, state.spans
            parent = stack[-1] if stack else -1
            span = [key, parent, 0.0, 0.0, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = perf_counter() - t0
                cpu = thread_time() - c0
                stack.pop()
                span[START], span[WALL], span[CPU] = t0, wall, cpu
                if parent >= 0:
                    up = spans[parent]
                    up[CHILD_WALL] += wall
                    up[CHILD_CPU] += cpu
            if hook is not None:
                hook(state, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _kernel_targets(self):
        """Every public method each registered kernel class defines or inherits."""
        try:
            kernels = importlib.import_module("repro.likelihood.kernels")
            classes = [kernels.get_kernel(n) for n in kernels.available_kernels()]
        except (ImportError, AttributeError):
            self.missing.append("repro.likelihood.kernels registry")
            return
        seen = set()
        for cls in classes:
            for klass in cls.__mro__[:-1]:  # up to, not including, object
                if klass in seen:
                    continue
                seen.add(klass)
                names = tuple(
                    n for n, v in vars(klass).items()
                    if not n.startswith("_") and type(v).__name__ == "function"
                )
                yield KERNEL_LAYER, klass.__module__, klass.__name__, names

    def install(self) -> "Tracer":
        specs = [
            (layer, module, cls, names)
            for layer, groups in TARGETS.items()
            for module, cls, names in groups
        ]
        specs.extend(self._kernel_targets())
        replaced: dict[int, object] = {}  # id(module-level original) -> wrapper
        for layer, module_name, cls_name, names in specs:
            try:
                owner = importlib.import_module(module_name)
                if cls_name is not None:
                    owner = getattr(owner, cls_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{cls_name or '*'}")
                continue
            for name in names:
                original = vars(owner).get(name)
                if not callable(original):
                    self.missing.append(f"{owner.__name__}.{name}")
                elif cls_name is not None:
                    self._patch(owner, name, self.wrap(original, layer, name))
                else:
                    replaced[id(original)] = self.wrap(original, layer, name)
        # Module-level functions: every repro module (and the defining
        # module) that holds the original under any name gets the wrapper.
        homes = {module for _, module, cls, _ in specs if cls is None}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.") or mod_name in homes
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(module, attr, wrapper)
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading the spans -------------------------------------------------------

    def n_spans(self) -> int:
        return sum(len(st.spans) for st in self.threads)

    def counters(self) -> dict[str, int]:
        return {
            name: sum(st.counts[name] for st in self.threads)
            for name in COUNTERS
        }

    def aggregate(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (layer, name): calls, self and inclusive wall and CPU seconds."""
        out: dict[tuple[str, str], dict[str, float]] = {}
        for st in self.threads:
            for s in st.spans:
                a = out.get(self.keys[s[KEY]])
                if a is None:
                    a = out[self.keys[s[KEY]]] = {
                        "calls": 0, "self_s": 0.0, "self_cpu_s": 0.0,
                        "wall_s": 0.0, "cpu_s": 0.0,
                    }
                a["calls"] += 1
                a["self_s"] += s[WALL] - s[CHILD_WALL]
                a["self_cpu_s"] += s[CPU] - s[CHILD_CPU]
                a["wall_s"] += s[WALL]
                a["cpu_s"] += s[CPU]
        return out

    def conservation(self) -> dict[str, dict[str, float]]:
        """Per thread: sum of all self times vs sum of root-span durations."""
        return {
            st.name: {
                "self_s": sum(s[WALL] - s[CHILD_WALL] for s in st.spans),
                "root_s": sum(s[WALL] for s in st.spans if s[PARENT] < 0),
            }
            for st in self.threads
        }

    def chrome_trace(self, max_events: int = 50_000, meta: dict | None = None) -> dict:
        """Trace Event Format document (one track per thread, times in us
        from the first span).  Above ``max_events`` the shortest spans are
        left out and counted in ``otherData.dropped_spans``."""
        total = self.n_spans()
        floor = 0.0
        if total > max_events:
            durations = sorted(
                (s[WALL] for st in self.threads for s in st.spans),
                reverse=True,
            )
            floor = durations[max_events - 1]
        origin = min(
            (st.spans[0][START] for st in self.threads if st.spans),
            default=0.0,
        )
        events: list[dict] = []
        kept = 0
        for tid, st in enumerate(self.threads):
            events.append({"ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
                           "args": {"name": st.name}})
            for i, s in enumerate(st.spans):
                if s[WALL] < floor or kept >= max_events:
                    continue
                kept += 1
                layer, fn = self.keys[s[KEY]]
                events.append({
                    "ph": "X", "name": fn, "cat": layer, "pid": 0, "tid": tid,
                    "ts": (s[START] - origin) * 1e6, "dur": s[WALL] * 1e6,
                    "args": {"span": i, "parent": s[PARENT],
                             "cpu_us": s[CPU] * 1e6,
                             "self_us": (s[WALL] - s[CHILD_WALL]) * 1e6},
                })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**(meta or {}), "spans": total,
                          "dropped_spans": total - kept},
        }
