"""End-to-end control solving: normalize, encode, solve, decode.

Targets come in as original candidate indices; the pipeline relabels the
target to index 1, runs the encoder and solver, and decodes the answer on
the caller's election, in its labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import ControlSpec, Election, normalize_target
from .encoders import ControlSolution, EncodedProblem, decode, encode_control
from .solver import SolveResult, SolverConfig, solve


@dataclass(frozen=True)
class ControlOutcome:
    solution: ControlSolution
    solve_result: SolveResult
    problem: EncodedProblem


def build_problem(election: Election, spec: ControlSpec):
    """Normalized instance plus its encoded program (for export or solving)."""
    norm_election, norm_spec = normalize_target(election, spec)
    problem = encode_control(norm_election, norm_spec)
    return problem, norm_election, norm_spec


def solve_control(
    election: Election, spec: ControlSpec, config: Optional[SolverConfig] = None
) -> ControlOutcome:
    """Solve a control instance and verify the answer on the restricted
    election. `decode` reads the kept/deleted sets in original indices and
    rechecks the winner on `election` itself."""
    problem, _, _ = build_problem(election, spec)
    result = solve(problem.model, config)
    if result.status == "Optimal":
        solution = decode(problem, result.incumbent, election, spec)
    else:
        solution = ControlSolution((), (), None, result.status, None)
    return ControlOutcome(solution, result, problem)
