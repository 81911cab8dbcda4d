"""Brute-force ground truth for control problems.

Deliberately simple, and independent of the solve path it checks: it
enumerates the election as given, in the caller's labels, voter subsets
(or candidate subsets containing the target) by decreasing cardinality,
lexicographically within one cardinality, and returns the first subset
whose restricted election satisfies the requested mode. That yields the
maximum objective and, among tied optima, the lexicographically first
kept set in the caller's indices, in one pass. No pruning, by design.
"""

from __future__ import annotations

from itertools import combinations

from .core import ControlSpec, Election
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
    destructively); candidate deletion enumerates the 2^(m-1) subsets of
    the other candidates, each kept with the target. Raises ValueError
    for a target above m, before the limit is checked.
    """
    target = spec.target
    if target > election.m:
        raise ValueError(f"target {target} is not a candidate index (m={election.m})")
    voters_mode = spec.action == "delete-voters"
    total = election.n if voters_mode else election.m
    universe = [i for i in range(1, total + 1) if voters_mode or i != target]
    count = 1 << len(universe)
    if count > limit:
        raise OracleLimitError(
            f"{count} subset evaluations exceed the enumeration limit {limit}"
        )
    constructive = spec.mode == "constructive"
    for size in range(len(universe), -1, -1):
        for combo in combinations(universe, size):
            kept = combo if voters_mode else tuple(sorted(combo + (target,)))
            winner = winner_after_deletion(election, spec.rule, kept, spec.action)
            if (winner == target) == constructive:
                deleted = tuple(i for i in range(1, total + 1) if i not in kept)
                verification = {
                    "rule": spec.rule,
                    "mode": spec.mode,
                    "target": target,
                    "winner": winner,
                    "ok": True,
                }
                return ControlSolution(kept, deleted, len(kept), "Optimal", verification)
    return ControlSolution((), (), None, "Infeasible", None)
