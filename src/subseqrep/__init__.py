"""Square, cubic and subsequence-repeated subsequence analysis.

Solvers: all-substrings square/cube interval tables, the optimal
repeat-subsequence decomposition, and the full-coverage variant for
sequences whose letters occur at most three times.  Brute-force oracles
cross-check everything on small inputs, and the hardness module builds
the graph-coloring string instances that mark where the polynomial
cases end.
"""

from .core import (
    Block,
    OccurrenceIndex,
    Sequence,
    SequenceParseError,
    SrsDecomposition,
    merge_blocks,
    parse_sequence,
    power_root,
    sequence_from_tokens,
    split_exponent,
    srs_partitionable,
    validate_srs,
)
from .lcs import lcs2_all_prefixes, lcs2_witness, lcs3_all_prefixes, lcs3_witness
from .lsrs import LsrsResult, lsrs
from .oracles import (
    BudgetExceededError,
    oracle_cube_table,
    oracle_lsrs,
    oracle_lsrs_plus,
    oracle_square_table,
)
from .plus3 import (
    CoverageTables,
    FeasibilityTables,
    OccurrenceBoundError,
    Plus3Result,
    coverage_tables,
    feasibility_tables,
    ft3,
    lsrs_plus3,
    precheck,
    s2_table,
    s3_table,
)
from .tables import IntervalTable, cube_table, cube_witness, square_table, square_witness

__all__ = [
    "Block",
    "BudgetExceededError",
    "CoverageTables",
    "FeasibilityTables",
    "IntervalTable",
    "LsrsResult",
    "OccurrenceBoundError",
    "OccurrenceIndex",
    "Plus3Result",
    "Sequence",
    "SequenceParseError",
    "SrsDecomposition",
    "coverage_tables",
    "cube_table",
    "cube_witness",
    "feasibility_tables",
    "ft3",
    "lcs2_all_prefixes",
    "lcs2_witness",
    "lcs3_all_prefixes",
    "lcs3_witness",
    "lsrs",
    "lsrs_plus3",
    "merge_blocks",
    "oracle_cube_table",
    "oracle_lsrs",
    "oracle_lsrs_plus",
    "oracle_square_table",
    "parse_sequence",
    "power_root",
    "precheck",
    "s2_table",
    "s3_table",
    "sequence_from_tokens",
    "split_exponent",
    "square_table",
    "square_witness",
    "srs_partitionable",
    "validate_srs",
]

__version__ = "0.1.0"
