"""collatzkit: exact Collatz chains, inverse predecessor tables, counting
identities and range-recurrence checks, all cross-checked against brute
force at desk scale."""

from .core import (
    DEFAULT_MAX_STEPS,
    Trajectory,
    chain_product,
    odd_successor,
    step,
    trajectory,
    v2,
)
from .counting import (
    FloorRemainder,
    TotalsReport,
    geom_sum,
    geom_weighted_sum,
    i_epow_max,
    i_opow_max,
    kj_even,
    kj_odd,
    power_relation_integer,
    totals,
)
from .inverse import (
    CoverageReport,
    PredecessorRecord,
    PredecessorTable,
    SubsetClass,
    SubsetTag,
    UniquenessReport,
    classify,
    generate_table,
    inverse_bfs,
    predecessor_of,
    predecessors,
    table_to_csv,
    uniqueness_check,
)
from .ranges import (
    IterationTrace,
    RangeState,
    iterate_ranges,
    range_step,
)
from .verify import (
    AssumptionRow,
    CrossCheckEntry,
    CycleScanReport,
    VerifyReport,
    cross_check_totals,
    cycle_scan,
    reproduce_assumption_table,
    verify_forward,
)

__version__ = "0.1.0"
