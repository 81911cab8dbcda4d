"""End-to-end control solving: normalize, encode, solve, decode.

Targets come in as original candidate indices; the pipeline relabels the
target to index 1, runs the encoder and solver, and maps every reported
index back to the original labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import ControlSpec, Election, normalize_target, swap_index
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
    election. Kept/deleted sets are reported in original indices."""
    problem, norm_election, norm_spec = build_problem(election, spec)
    result = solve(problem.model, config)
    if result.status == "Optimal":
        solution = decode(problem, result.incumbent, norm_election, norm_spec)
        solution = _denormalize(solution, spec, election)
    else:
        solution = ControlSolution((), (), None, result.status, None)
    return ControlOutcome(solution, result, problem)


def _denormalize(solution: ControlSolution, spec: ControlSpec, election: Election) -> ControlSolution:
    """Map a solution on the normalized election back to original labels."""
    if spec.target == 1:
        return solution
    verification = dict(solution.verification or {})
    if verification.get("winner") is not None:
        verification["winner"] = swap_index(verification["winner"], 1, spec.target)
    verification["target"] = spec.target
    if spec.action == "delete-candidates":
        kept = tuple(sorted(swap_index(i, 1, spec.target) for i in solution.kept))
        deleted = tuple(sorted(swap_index(i, 1, spec.target) for i in solution.deleted))
    else:
        kept, deleted = solution.kept, solution.deleted
    return ControlSolution(kept, deleted, solution.objective, solution.status, verification)
