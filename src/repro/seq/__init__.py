"""Sequence substrate: alignments, pattern compression, bootstrap resampling.

RAxML's fine-grained parallelization is "over the number of patterns"
(paper Section 2), where a *pattern* is a distinct column of the multiple
sequence alignment (paper Section 3).  This subpackage owns everything about
alignments and their pattern-compressed representation.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".encoding": (
        "DNA_STATES", "GAP_CODE", "UNDETERMINED", "encode_sequence", "decode_sequence",
        "state_likelihood_rows",
    ),
    ".alignment": ("Alignment",),
    ".patterns": ("PatternAlignment", "compress_alignment"),
    ".bootstrap": ("bootstrap_weights", "bootstrap_pattern_weights"),
    ".io_fasta": ("read_fasta", "write_fasta", "parse_fasta"),
    ".io_phylip": ("read_phylip", "write_phylip", "parse_phylip"),
})
