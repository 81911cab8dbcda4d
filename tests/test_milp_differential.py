"""Differential sweep against `scipy.optimize.milp` (HiGHS MIP).

The brute-force oracle cannot enumerate 2^n voter subsets at n = 20 to 200,
so at those sizes `solve_control` (branch and bound, decode, winner
recheck) is compared with HiGHS solving the same encoded program.

Profiles are tilted so that both modes have work to do: a constructive
target is moved off the top of every ballot, and a destructive target is
moved to the top of about 40% of them. Range instances draw scores 0-5;
there the destructive target is the range winner.

The points in `BRACKETED` run under a node limit instead, against the
cheapest exact reference: the oracle for candidate deletion, `milp` for
voter deletion.
"""

import random

import pytest

from ballotcontrol import (
    ControlSpec,
    Election,
    SolverConfig,
    brute_force_control,
    decode,
    solve_control,
    winner_for_rule,
)
from genutil import milp_optimum, random_profile, random_score_election

VOTER_SIZES = ((20, 5), (60, 5), (120, 4), (200, 5))
CANDIDATE_SIZES = ((20, 6), (20, 10), (20, 15), (30, 8), (60, 6))

# Points the solver has not proved optimal within the sweep's budget (it
# hit a 15 s limit on each), with the node limit each runs under: about
# 0.2 s of search apiece. The two m = 15 points find no incumbent within
# 5 nodes, and 20 nodes already take 5-10 s there.
SLOW = {
    ("maximin", "delete-voters", "destructive", 200, 5): 400,
    ("bucklin", "delete-voters", "constructive", 120, 4): 400,
    ("bucklin", "delete-candidates", "constructive", 20, 15): 5,
    ("bucklin", "delete-candidates", "destructive", 20, 15): 5,
}
# Every point run under a node limit: the SLOW ones, and one that the
# solver proves optimal in 19 nodes but on which milp ran longer than 10 s.
BRACKETED = {**SLOW, ("bucklin", "delete-candidates", "constructive", 60, 6): 40}

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
    if (rule, action, mode, n, m) not in BRACKETED
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


def draw(rule, action, mode, n, m):
    """The election and spec of one point of the sweep."""
    rng = random.Random(f"{rule}/{action}/{mode}/{n}/{m}")
    target = rng.randint(1, m)
    if rule == "range":
        election = random_score_election(rng, n, m, 5)
        if mode == "destructive":
            target = winner_for_rule(rule, election).winner or target
    else:
        election = tilted_election(rng, n, m, target, lift=mode == "destructive")
    return election, ControlSpec(rule, action, mode, target)


@pytest.mark.parametrize("rule,action,mode,n,m", CASES, ids=str)
def test_solver_agrees_with_milp(rule, action, mode, n, m):
    election, spec = draw(rule, action, mode, n, m)
    outcome = solve_control(election, spec)
    solution = outcome.solution
    assert (solution.status, solution.objective) == milp_optimum(outcome.problem.model)


@pytest.mark.parametrize("rule,action,mode,n,m", sorted(BRACKETED), ids=str)
def test_limited_answer_brackets_the_optimum(rule, action, mode, n, m):
    point = (rule, action, mode, n, m)
    election, spec = draw(*point)
    outcome = solve_control(election, spec, SolverConfig(node_limit=BRACKETED[point]))
    result = outcome.solve_result
    if action == "delete-candidates":
        reference = brute_force_control(election, spec)
        optimum = (reference.status, reference.objective)
    else:
        optimum = milp_optimum(outcome.problem.model)
    if point not in SLOW or result.status == "Optimal":
        assert (result.status, result.objective) == optimum
        return
    assert result.status == "NodeLimit"
    status, best = optimum
    assert status == "Optimal"
    assert result.bound >= best
    if result.incumbent is not None:
        assert result.objective <= best
        solution = decode(outcome.problem, result.incumbent, election, spec)
        assert solution.objective == result.objective
