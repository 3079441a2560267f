"""Quantifying the price of majority support in multi-topic binary voting.

The library computes, exactly, how representative a majority-supported
compromise proposal can be made: brute-force optima over all proposals,
closed-form and LP-based worst-case bounds, and generators for the matrices
attaining them.
"""

from .bounds import (
    RtBounds,
    analytic_floor,
    figure2_points,
    ma_closed_form_full,
    ma_linear_lower,
    rt_analytic_upper,
    rt_bounds,
    rt_lower_numeric,
    rt_upper_numeric,
)
from .combinatorics import binomial, c_l, min_k, s_kl, s_kl_oracle
from .constructions import (
    lemma1_matrix,
    lemma7_matrix,
    theorem2_matrix,
    theorem3_matrix,
    vlp_matrix,
)
from .core import (
    ColumnTally,
    ParameterError,
    Proposal,
    ResourceLimitError,
    TypeProfile,
    VoterMatrix,
    VoterRow,
    absolute_representativeness,
    canonicalize,
    column_tally,
    has_majority_support,
    majority_decisions,
    matches,
    relative_representativeness,
    supports,
    type_profile,
)
from .lpsolve import LpSolution, build_ma_lp, ma_table, solve_ma, solve_ma_float
from .matrixio import MatrixFormatError, parse_matrix, write_matrix
from .oracle import (
    OracleResult,
    best_representation,
    half_proposal,
    md_of,
    r_V,
    rule_of_three_fourths_check,
)

__version__ = "0.1.0"
