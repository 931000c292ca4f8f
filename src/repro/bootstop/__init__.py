"""Bootstopping substrate: bipartition tables, consensus, the WC test.

The paper's hybrid code handles "a fixed number of bootstraps, not the
case where that number can vary depending upon a bootstopping test",
noting that parallelising the test "will require implementation of a
framework for parallel operations on hash tables" (Section 2).  This
package implements that future-work item:

* :class:`BipartitionTable` — the bipartition hash table, including a
  shard-partitioned variant usable across simulated MPI ranks;
* majority-rule consensus trees;
* bootstrap-support mapping onto a best-known tree;
* the WC (weighted-consensus) bootstopping criterion of Pattengale et
  al. (RECOMB 2009), whose recommendations populate Table 3's
  "recommended bootstraps" column.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".table": ("BipartitionTable", "merge_tables"),
    ".consensus": ("majority_consensus",),
    ".support": ("map_support",),
    ".wc_test": ("wc_statistic", "wc_converged", "wc_recommended_bootstraps"),
})
