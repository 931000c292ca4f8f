"""Fuzzed PHYLIP, FASTA and Newick readers.

Whatever text a user hands ``read_phylip``, ``read_fasta`` or
``parse_newick``, the reader either returns a value or raises
``ValueError`` (``NewickError`` and ``UnicodeDecodeError`` are
subclasses): never an ``IndexError``, a ``KeyError`` or a recursion
through the engine.  A Newick tree that parses is written back by
``write_newick`` and re-parses to the same topology, names and branch
lengths (``digits=None`` writes each length's shortest round-trip repr),
and every length it holds is finite.

The strategies mix free text over each format's own alphabet with
near-valid documents, so that most examples get past the first line.
"""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.seq.io_fasta import read_fasta
from repro.seq.io_phylip import read_phylip
from repro.tree.newick import parse_newick, write_newick

fuzz = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Characters that steer each parser, plus a few it must refuse
#: (non-ASCII, control characters).
SEQ_ALPHABET = "ACGTUNRY-?acgt 0123456789>\n\t\r\x00é"
NEWICK_ALPHABET = "(),:;[]ab c01.5e-+naifNI\n\t"

names = st.text("abcXYZ_0123456789", min_size=1, max_size=4)


@st.composite
def mutated(draw, text, alphabet):
    """``text`` with up to three characters inserted, deleted or replaced."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(alphabet))
        text = draw(st.sampled_from(
            [text[:i] + ch + text[i:], text[:i] + text[i + 1:], text[:i] + ch + text[i + 1:]]
        ))
    return text


@st.composite
def alignments(draw):
    n = draw(st.integers(3, 6))
    m = draw(st.integers(1, 8))
    taxa = draw(st.lists(names, min_size=n, max_size=n, unique=True))
    return [(t, draw(st.text("ACGTNRY-?acgt", min_size=m, max_size=m))) for t in taxa]


@st.composite
def phylip_texts(draw):
    rows = draw(alignments())
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    lines = [f"{len(rows)} {len(rows[0][1])}"] + [f"{n}{sep}{s}" for n, s in rows]
    return draw(mutated("\n".join(lines) + "\n", SEQ_ALPHABET))


@st.composite
def fasta_texts(draw):
    lines = [f">{n}\n{s}" for n, s in draw(alignments())]
    return draw(mutated("\n".join(lines) + "\n", SEQ_ALPHABET))


#: Branch lengths as written: one in ten is odd (any float's repr, NaN
#: and infinities included, or a token ``float`` reads unusually).
lengths = st.integers(0, 9).flatmap(
    lambda i: st.floats(-1.0, 30.0).map(repr) if i else st.one_of(
        st.floats().map(repr),
        st.sampled_from(["", "1e400", "-0.0", "1_0", " 0.5 ", "nan"]),
    )
)


@st.composite
def newick_trees(draw):
    """A tree of 3 to ~12 uniquely named leaves, rooted or not, lengths
    optional, internal labels sometimes support values."""
    count = iter(range(1000))

    def subtree(depth):
        if depth >= 3 or draw(st.booleans()):
            label = f"t{next(count)}"
        else:
            kids = [subtree(depth + 1) for _ in range(draw(st.integers(1, 3)))]
            label = f"({','.join(kids)})" + draw(st.sampled_from(["", "95", "x"]))
        if draw(st.booleans()):
            label += ":" + draw(lengths)
        return label

    kids = [subtree(1) for _ in range(draw(st.integers(2, 4)))]
    return f"({','.join(kids)});"


newick_texts = st.one_of(
    st.text(NEWICK_ALPHABET, max_size=40),
    newick_trees(),
    newick_trees().flatmap(lambda text: mutated(text, NEWICK_ALPHABET)),
)


@pytest.fixture(scope="module")
def scratch_file():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "input.txt"


def _read(reader, path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))
    try:
        reader(path)
    except ValueError:
        pass


@fuzz
@given(st.one_of(st.text(SEQ_ALPHABET, max_size=60), phylip_texts()))
def test_read_phylip_parses_or_raises_value_error(scratch_file, text):
    _read(read_phylip, scratch_file, text)


@fuzz
@given(st.one_of(st.text(SEQ_ALPHABET, max_size=60), fasta_texts()))
def test_read_fasta_parses_or_raises_value_error(scratch_file, text):
    _read(read_fasta, scratch_file, text)


@fuzz
@given(newick_texts)
def test_parse_newick_parses_or_raises_value_error(text):
    try:
        tree = parse_newick(text)
    except ValueError:
        return
    lengths = [n.length for n in tree.postorder() if n.parent is not None]
    assert all(math.isfinite(t) for t in lengths)
    written = write_newick(tree, digits=None)
    again = parse_newick(written)
    assert write_newick(again, digits=None) == written
    assert again.taxa == tree.taxa
    assert [n.length for n in again.postorder() if n.parent is not None] == lengths
