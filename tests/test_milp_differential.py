"""Differential sweep against `scipy.optimize.milp` (HiGHS MIP).

The brute-force oracle cannot enumerate 2^n voter subsets at n = 20 to 200,
so at those sizes `solve_control` (branch and bound, decode, winner
recheck) is compared with HiGHS solving the same encoded program.

Profiles are tilted so that both modes have work to do: a constructive
target is moved off the top of every ballot, and a destructive target is
moved to the top of about 40% of them. Range instances draw scores 0-5;
there the destructive target is the range winner.
"""

import random

import pytest

from ballotcontrol import ControlSpec, Election, solve_control, winner_for_rule
from genutil import milp_optimum, random_profile, random_score_election

VOTER_SIZES = ((20, 5), (60, 5), (120, 4), (200, 5))
CANDIDATE_SIZES = ((20, 6), (20, 10), (20, 15), (30, 8), (60, 6))

# Left out to keep the sweep near its 20 s budget: the solver or milp ran
# longer than 10 s on each (the measured times are in CHANGES.md).
SLOW = {
    ("maximin", "delete-voters", "destructive", 200, 5),
    ("bucklin", "delete-voters", "constructive", 120, 4),
    ("bucklin", "delete-candidates", "constructive", 20, 15),
    ("bucklin", "delete-candidates", "destructive", 20, 15),
    ("bucklin", "delete-candidates", "constructive", 60, 6),
}

PAIRS = (
    ("range", "delete-voters"),
    ("condorcet", "delete-voters"),
    ("maximin", "delete-voters"),
    ("bucklin", "delete-voters"),
    ("plurality", "delete-candidates"),
    ("bucklin", "delete-candidates"),
)

CASES = [
    (rule, action, mode, n, m)
    for rule, action in PAIRS
    for mode in ("constructive", "destructive")
    for n, m in (VOTER_SIZES if action == "delete-voters" else CANDIDATE_SIZES)
    if (rule, action, mode, n, m) not in SLOW
]


def tilted_election(rng, n, m, target, lift):
    ballots = []
    for ranking in random_profile(rng, n, m):
        ranking = list(ranking)
        if lift and rng.random() < 0.4:
            ranking.remove(target)
            ranking.insert(0, target)
        elif not lift and ranking[0] == target:
            ranking[0], ranking[1] = ranking[1], ranking[0]
        ballots.append(tuple(ranking))
    return Election.from_rankings(ballots)


@pytest.mark.parametrize("rule,action,mode,n,m", CASES, ids=str)
def test_solver_agrees_with_milp(rule, action, mode, n, m):
    rng = random.Random(f"{rule}/{action}/{mode}/{n}/{m}")
    target = rng.randint(1, m)
    if rule == "range":
        election = random_score_election(rng, n, m, 5)
        if mode == "destructive":
            target = winner_for_rule(rule, election).winner or target
    else:
        election = tilted_election(rng, n, m, target, lift=mode == "destructive")
    outcome = solve_control(election, ControlSpec(rule, action, mode, target))
    solution = outcome.solution
    assert (solution.status, solution.objective) == milp_optimum(outcome.problem.model)
