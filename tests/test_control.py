import itertools
import random

import pytest

from ballotcontrol import (
    ControlSpec,
    Election,
    LinearConstraint,
    LinearProgram,
    SolverConfig,
    Variable,
    brute_force_control,
    solve_control,
)
from ballotcontrol.core import MODES, SUPPORTED_CONTROL_PAIRS
from genutil import random_election, random_score_election

GOLDEN = {
    ("condorcet", "delete-voters"): 3,
    ("plurality", "delete-candidates"): 4,
    ("maximin", "delete-voters"): 3,
    ("bucklin", "delete-voters"): 3,
    ("bucklin", "delete-candidates"): 4,
}


@pytest.mark.parametrize("rule,action", sorted(GOLDEN))
def test_worked_profile_golden_objectives(worked_election, rule, action):
    spec = ControlSpec(rule, action, "constructive", 1)
    outcome = solve_control(worked_election, spec)
    assert outcome.solution.status == "Optimal"
    assert outcome.solution.objective == GOLDEN[(rule, action)]
    assert outcome.solution.verification["ok"]


DESTRUCTIVE_GOLDEN = {
    ("condorcet", "delete-voters"): ("Optimal", 2),
    ("plurality", "delete-candidates"): ("Infeasible", None),
    ("maximin", "delete-voters"): ("Optimal", 2),
    ("bucklin", "delete-voters"): ("Optimal", 2),
    ("bucklin", "delete-candidates"): ("Infeasible", None),
}


@pytest.mark.parametrize("rule,action", sorted(DESTRUCTIVE_GOLDEN))
def test_worked_profile_destructive_golden(worked_election, rule, action):
    spec = ControlSpec(rule, action, "destructive", 1)
    outcome = solve_control(worked_election, spec)
    oracle = brute_force_control(worked_election, spec)
    assert (oracle.status, oracle.objective) == DESTRUCTIVE_GOLDEN[(rule, action)]
    assert (outcome.solution.status, outcome.solution.objective) == (
        oracle.status,
        oracle.objective,
    )


def test_destructive_can_empty_the_electorate():
    # the target tops every ballot, so only an empty electorate stops it
    election = Election.from_rankings([(1, 2), (1, 2)])
    spec = ControlSpec("condorcet", "delete-voters", "destructive", 1)
    outcome = solve_control(election, spec)
    assert outcome.solution.status == "Optimal"
    assert outcome.solution.objective == 0
    assert outcome.solution.kept == ()
    assert outcome.solution.verification["winner"] is None


def test_arbitrary_target_reports_original_indices(worked_election):
    # candidate 4 tops only voter 3; keeping just that voter elects it
    spec = ControlSpec("plurality", "delete-candidates", "constructive", 4)
    outcome = solve_control(worked_election, spec)
    assert outcome.solution.status == "Optimal"
    assert 4 in outcome.solution.kept
    oracle = brute_force_control(worked_election, spec)
    assert outcome.solution.objective == oracle.objective


def test_voter_mode_target_mapping(worked_election):
    spec = ControlSpec("condorcet", "delete-voters", "constructive", 3)
    outcome = solve_control(worked_election, spec)
    oracle = brute_force_control(worked_election, spec)
    assert (outcome.solution.status, outcome.solution.objective) == (
        oracle.status,
        oracle.objective,
    )
    if outcome.solution.status == "Optimal":
        assert outcome.solution.verification["winner"] == 3


class TestSingleCandidate:
    def test_condorcet_constructive_keeps_all(self):
        election = Election.from_rankings([(1,), (1,), (1,)])
        spec = ControlSpec("condorcet", "delete-voters", "constructive", 1)
        outcome = solve_control(election, spec)
        assert outcome.solution.kept == (1, 2, 3)
        assert outcome.solution.objective == 3

    def test_maximin_destructive_impossible(self):
        election = Election.from_rankings([(1,), (1,)])
        spec = ControlSpec("maximin", "delete-voters", "destructive", 1)
        assert solve_control(election, spec).solution.status == "Infeasible"

    def test_range_single_candidate_natural_path(self):
        election = Election.from_scores([[4, 0, 2]])
        spec = ControlSpec("range", "delete-voters", "constructive", 1)
        outcome = solve_control(election, spec)
        assert outcome.solution.objective == 3


def test_target_out_of_range_rejected(worked_election):
    spec = ControlSpec("condorcet", "delete-voters", "constructive", 7)
    with pytest.raises(ValueError):
        solve_control(worked_election, spec)


def test_time_limit_status_passthrough(worked_election):
    rng = random.Random(8)
    election = random_election(rng, 10, 5)
    spec = ControlSpec("bucklin", "delete-voters", "constructive", 1)
    outcome = solve_control(election, spec, SolverConfig(time_limit=1e-9))
    assert outcome.solution.status in ("TimeLimit", "Optimal", "Infeasible")


@pytest.mark.parametrize("seed", range(10))
def test_random_targets_agree_with_oracle(seed):
    rng = random.Random(200 + seed)
    election = random_election(rng, rng.randint(1, 7), rng.randint(2, 4))
    target = rng.randint(1, election.m)
    mode = rng.choice(("constructive", "destructive"))
    spec = ControlSpec("maximin", "delete-voters", mode, target)
    outcome = solve_control(election, spec)
    oracle = brute_force_control(election, spec)
    assert (outcome.solution.status, outcome.solution.objective) == (
        oracle.status,
        oracle.objective,
    )


def solve_everything_small(rng):
    """Solve every rule, action and mode at four small sizes, each answer
    equal to the brute-force oracle's."""
    for (rule, action), mode in itertools.product(sorted(SUPPORTED_CONTROL_PAIRS), MODES):
        for n, m in ((1, 1), (3, 2), (4, 3), (5, 4)):
            if rule == "range":
                election = random_score_election(rng, n, m, 3)
            else:
                election = random_election(rng, n, m)
            spec = ControlSpec(rule, action, mode, rng.randint(1, m))
            outcome = solve_control(election, spec)
            oracle = brute_force_control(election, spec)
            assert (outcome.solution.status, outcome.solution.objective) == (
                oracle.status,
                oracle.objective,
            )


def test_no_linear_constraint_is_built_while_solving(monkeypatch):
    """Programs are built from term tuples and arrays alone:
    `LinearConstraint` is only the item type of the `constraints` view."""

    def refuse(self):
        raise AssertionError(f"LinearConstraint built on the solve path: {self.tag!r}")

    monkeypatch.setattr(LinearConstraint, "__post_init__", refuse)
    solve_everything_small(random.Random("no constraint objects"))


def test_no_variable_is_built_while_solving(monkeypatch):
    """Variables are declared and read by column: `Variable` is only the
    item type of the `variables` view, and no library path reads it or the
    `objective` view."""

    def refuse(self):
        raise AssertionError(f"Variable built on the solve path: {self.name!r}")

    def refuse_view(model):
        raise AssertionError(f"a view of {model.name!r} read on the solve path")

    monkeypatch.setattr(Variable, "__post_init__", refuse)
    monkeypatch.setattr(LinearProgram, "variables", property(refuse_view))
    monkeypatch.setattr(LinearProgram, "objective", property(refuse_view))
    solve_everything_small(random.Random("no variable objects"))
