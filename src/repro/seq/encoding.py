"""DNA state encoding with IUPAC ambiguity codes.

Characters are encoded as 4-bit masks over the states ``A, C, G, T`` —
exactly the representation RAxML uses — so that an ambiguous character is
the OR of its compatible states and a gap/unknown is ``0b1111`` (compatible
with everything).  The tip conditional-likelihood row for a character is
then simply the mask expanded into a 0/1 vector of length four.
"""

from __future__ import annotations

import numpy as np

#: Order of the four nucleotide states everywhere in this package.
DNA_STATES = "ACGT"

_A, _C, _G, _T = 1, 2, 4, 8

#: IUPAC nucleotide codes -> 4-bit state masks (bit order A=1, C=2, G=4, T=8).
IUPAC_TO_MASK: dict[str, int] = {
    "A": _A,
    "C": _C,
    "G": _G,
    "T": _T,
    "U": _T,  # RNA uracil behaves as T
    "R": _A | _G,
    "Y": _C | _T,
    "S": _C | _G,
    "W": _A | _T,
    "K": _G | _T,
    "M": _A | _C,
    "B": _C | _G | _T,
    "D": _A | _G | _T,
    "H": _A | _C | _T,
    "V": _A | _C | _G,
    "N": _A | _C | _G | _T,
    "O": _A | _C | _G | _T,
    "X": _A | _C | _G | _T,
    "?": _A | _C | _G | _T,
    "-": _A | _C | _G | _T,
    ".": _A | _C | _G | _T,
}

#: Code meaning "completely undetermined" (gap, N, ?).
UNDETERMINED = _A | _C | _G | _T
#: Alias kept for readability at call sites dealing with gaps.
GAP_CODE = UNDETERMINED

_MASK_TO_CHAR = {
    _A: "A",
    _C: "C",
    _G: "G",
    _T: "T",
    _A | _G: "R",
    _C | _T: "Y",
    _C | _G: "S",
    _A | _T: "W",
    _G | _T: "K",
    _A | _C: "M",
    _C | _G | _T: "B",
    _A | _G | _T: "D",
    _A | _C | _T: "H",
    _A | _C | _G: "V",
    UNDETERMINED: "-",
}

# Build a 256-entry translation table for fast vectorized encoding.
_ENCODE_LUT = np.zeros(256, dtype=np.uint8)
for ch, mask in IUPAC_TO_MASK.items():
    _ENCODE_LUT[ord(ch)] = mask
    _ENCODE_LUT[ord(ch.lower())] = mask


def encode_sequence(seq: str) -> np.ndarray:
    """Encode a DNA/RNA string into a ``uint8`` array of 4-bit state masks.

    Raises ``ValueError`` on characters outside the IUPAC alphabet.

    >>> encode_sequence("ACGT-N").tolist()
    [1, 2, 4, 8, 15, 15]
    """
    raw = np.frombuffer(seq.encode("ascii", errors="strict"), dtype=np.uint8)
    codes = _ENCODE_LUT[raw]
    if np.any(codes == 0):
        bad = sorted({chr(b) for b in raw[codes == 0]})
        raise ValueError(f"invalid DNA characters: {bad}")
    return codes


def decode_sequence(codes: np.ndarray) -> str:
    """Inverse of :func:`encode_sequence` (ambiguity masks -> IUPAC chars)."""
    try:
        return "".join(_MASK_TO_CHAR[int(c)] for c in codes)
    except KeyError as exc:  # pragma: no cover - defensive
        raise ValueError(f"invalid state mask {exc.args[0]!r}") from exc


#: Tip likelihood rows (read-only): row[mask] is the 0/1 vector of
#: compatible states.
TIP_ROWS = np.zeros((16, 4), dtype=np.float64)
for mask in range(1, 16):
    for bit, col in ((_A, 0), (_C, 1), (_G, 2), (_T, 3)):
        if mask & bit:
            TIP_ROWS[mask, col] = 1.0
TIP_ROWS.setflags(write=False)


def state_likelihood_rows() -> np.ndarray:
    """The ``(16, 4)`` table mapping a 4-bit mask to its tip CLV row.

    Row ``m`` has a 1.0 in every state compatible with mask ``m``.  Row 0 is
    all-zero and must never be indexed (encode rejects invalid characters).
    """
    return TIP_ROWS.copy()
