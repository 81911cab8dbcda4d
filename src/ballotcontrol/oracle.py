"""Brute-force ground truth for control problems.

Deliberately simple: enumerate voter subsets (or candidate subsets
containing the target) by decreasing cardinality, lexicographically
within one cardinality, and return the first subset whose restricted
election satisfies the requested mode. That yields the maximum objective
and a deterministic tie-break in one pass. No pruning, by design.
"""

from __future__ import annotations

from itertools import combinations

from .core import ControlSpec, Election, normalize_target, swap_index
from .encoders import ControlSolution
from .rules import winner_after_deletion

DEFAULT_LIMIT = 1 << 22


class OracleLimitError(RuntimeError):
    """The instance needs more subset evaluations than the given budget."""


def brute_force_control(
    election: Election, spec: ControlSpec, limit: int = DEFAULT_LIMIT
) -> ControlSolution:
    """Maximum-cardinality kept set for the control instance, or Infeasible.

    Voter deletion enumerates all 2^n voter subsets including the empty
    one (an empty electorate has no winner unless m=1, so it can qualify
    destructively); candidate deletion enumerates the 2^(m-1) subsets that
    keep the target.
    """
    norm_election, norm_spec = normalize_target(election, spec)
    voters_mode = spec.action == "delete-voters"
    if voters_mode:
        universe = list(range(1, norm_election.n + 1))
    else:
        universe = list(range(2, norm_election.m + 1))
    count = 1 << len(universe)
    if count > limit:
        raise OracleLimitError(
            f"{count} subset evaluations exceed the enumeration limit {limit}"
        )
    constructive = spec.mode == "constructive"
    for size in range(len(universe), -1, -1):
        for combo in combinations(universe, size):
            kept = combo if voters_mode else (1,) + combo
            winner = winner_after_deletion(
                norm_election, spec.rule, kept, spec.action
            )
            qualifies = (winner == 1) if constructive else (winner != 1)
            if qualifies:
                return _solution(election, spec, kept, winner, voters_mode)
    return ControlSolution((), (), None, "Infeasible", None)


def _solution(election, spec, kept, winner, voters_mode) -> ControlSolution:
    if voters_mode:
        kept_orig = tuple(sorted(kept))
        total = election.n
    else:
        kept_orig = tuple(sorted(swap_index(i, 1, spec.target) for i in kept))
        total = election.m
    winner_orig = None if winner is None else swap_index(winner, 1, spec.target)
    kept_set = set(kept_orig)
    deleted = tuple(i for i in range(1, total + 1) if i not in kept_set)
    verification = {
        "rule": spec.rule,
        "mode": spec.mode,
        "target": spec.target,
        "winner": winner_orig,
        "ok": True,
    }
    return ControlSolution(kept_orig, deleted, len(kept_orig), "Optimal", verification)
