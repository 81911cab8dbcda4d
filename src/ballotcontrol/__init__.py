"""Election-control toolkit: winners under five voting rules, control by
deleting voters or candidates compiled to integer programs, an embedded
branch-and-bound solver, and a brute-force oracle for verification."""

from .core import (
    ACTIONS,
    MODES,
    RULES,
    SUPPORTED_CONTROL_PAIRS,
    ControlSpec,
    Election,
    ScoreMatrix,
    StrictProfile,
    TiedProfile,
    normalize_target,
    restrict_to_candidates,
    restrict_to_voters,
    swap_index,
)
from .preflib import (
    PrefLibDocument,
    PrefLibParseError,
    expand_scores,
    expand_voters,
    parse_preflib,
    serialize_preflib,
    tied_to_scores,
)
from .rules import (
    WinnerOutcome,
    bucklin_psi,
    bucklin_rank_set,
    bucklin_winner,
    condorcet_winner,
    maximin_phi,
    maximin_winner,
    pairwise_advantage,
    plurality_winner,
    range_winner,
    winner_after_deletion,
    winner_for_rule,
)
from .ilp import (
    Assignment,
    CheckReport,
    LinearConstraint,
    LinearProgram,
    Variable,
    add_alternative_block,
    check_assignment,
    export_lp,
    export_mps,
    parse_lp,
)
from .encoders import (
    ControlSolution,
    EncodedProblem,
    VerificationError,
    bucklin_position_cube,
    decode,
    dominance_cube,
    dominance_row_matrix,
    encode_bec,
    encode_bev,
    encode_ce,
    encode_control,
    encode_mme,
    encode_pe,
    encode_re,
)
from .solver import (
    LpOutcome,
    SolveResult,
    SolverConfig,
    SolverError,
    canonical_result,
    solve,
    solve_lp_relaxation,
)
from .oracle import DEFAULT_LIMIT, OracleLimitError, brute_force_control
from .control import ControlOutcome, build_problem, solve_control

__version__ = "0.1.0"
