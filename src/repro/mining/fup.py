"""FUP-style exact maintenance of an itemset table under tuple inserts.

The paper defers Cases 1 and 2 (adding annotated / un-annotated tuples)
to "existing techniques" [its reference 1].  This module implements the
classic Fast-UPdate argument those techniques rest on:

* an itemset **in** the table has its count refreshed by scanning *only
  the inserted transactions* (its old count is exact);
* an itemset **not in** the table had ``count < keep_fraction * old_n``;
  if its count in the increment is also below ``keep_fraction * inc_n``
  then its total is below ``keep_fraction * new_n`` and it correctly
  stays out.  Hence the only possible *new* table entries are itemsets
  frequent **within the increment**, which are found by mining the
  increment alone and counted exactly against the full database through
  the vertical index.

The table therefore stays exactly equal to "all admitted itemsets with
support >= keep_fraction" after any insert batch — the property every
equivalence test in this repository checks.

The exact global count in step 2 runs through the engine's maintained
bitmap index (:mod:`repro.mining.bitmap`): each such count is one
big-int AND chain plus a popcount, never a database scan.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro._util import min_count_for
from repro.errors import MaintenanceError
from repro.mining.constraints import CandidateConstraint
from repro.mining.eclat import count_itemset
from repro.mining.itemsets import Itemset, Transaction
from repro.mining.tables import increment_counts
from repro.mining import apriori


@dataclass
class FupReport:
    """What an insert batch did to the itemset table."""

    new_size: int
    #: Number of (pattern, transaction) count refreshes performed.
    refreshed: int = 0
    #: Distinct pre-existing entries whose counts step 1 refreshed —
    #: the dirty set consumed by the engine's scoped rule refresh.
    touched: set[Itemset] = field(default_factory=set)
    added: list[Itemset] = field(default_factory=list)
    pruned: list[Itemset] = field(default_factory=list)


def fup_update(table: dict[Itemset, int],
               increment: Sequence[Transaction],
               *,
               index: Mapping[int, int],
               new_size: int,
               keep_fraction: float,
               constraint: CandidateConstraint,
               max_length: int | None = None) -> FupReport:
    """Update ``table`` in place for ``increment`` newly inserted tuples.

    ``index`` must be the item -> bit vector view
    (:meth:`~repro.mining.bitmap.BitmapIndex.as_mapping`) of the
    **already updated** database (increment included); ``new_size`` its
    transaction count.
    ``keep_fraction`` is the support floor the table maintains.  The
    increment-local candidates come from the paper's Apriori pass.
    """
    if new_size < len(increment):
        raise MaintenanceError(
            f"new_size={new_size} smaller than the increment "
            f"({len(increment)} transactions)")
    report = FupReport(new_size=new_size)

    # Step 1: refresh counts of existing entries by scanning the increment.
    for transaction in increment:
        report.refreshed += increment_counts(
            table, constraint.project(transaction),
            touched_out=report.touched)

    # Step 2: find itemsets frequent inside the increment; any genuinely
    # new table entry must be among them (FUP argument above).
    if increment:
        local_threshold = min_count_for(keep_fraction, len(increment))
        local = apriori.mine_frequent_itemsets(
            increment,
            min_count=local_threshold,
            constraint=constraint,
            max_length=max_length,
        )
        global_threshold = min_count_for(keep_fraction, new_size)
        for itemset in sorted(local, key=len):
            if itemset in table:
                continue
            total = count_itemset(index, itemset)
            if total >= global_threshold:
                table[itemset] = total
                report.added.append(itemset)

    # Step 3: prune entries that fell below the floor (|DB| grew).  The
    # floor is monotone in itemset size, so pruning preserves closure.
    floor = min_count_for(keep_fraction, new_size)
    for itemset in [itemset for itemset, count in table.items()
                    if count < floor]:
        del table[itemset]
        report.pruned.append(itemset)

    # An itemset added in step 2 might have a subset that was only kept
    # via step 2 as well; closure holds because apriori tables are closed
    # and counting is monotone.  Still, adds below the floor are a bug.
    for itemset in report.added:
        if itemset not in table:
            raise MaintenanceError(
                f"FUP added then pruned {itemset}; thresholds inconsistent")
    return report
