"""Relational operators on hybrid approximate/precise memory.

The paper studies sorting because it underlies database operators and names
"other database operations (such as aggregations) on approximate hardware"
as future work (Section 7).  This package builds that next layer: a small
column-oriented relation plus the three classic sort-driven operators —
``ORDER BY``, sort-based ``GROUP BY`` aggregation, and sort-merge ``JOIN``
— each off-loading its sort to approximate memory via approx-refine when
the Equation-4 cost model predicts a win.
"""

from .operators import (
    OperatorResult,
    group_by_aggregate,
    order_by,
    sort_merge_join,
)
from .table import Relation

__all__ = [
    "OperatorResult",
    "Relation",
    "group_by_aggregate",
    "order_by",
    "sort_merge_join",
]
