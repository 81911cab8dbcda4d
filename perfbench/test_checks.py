"""Tests of the benchmark's own checks: `python3 -m pytest perfbench`."""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from checks import Reference, kept_set_problems, reference_problems, tally_winner  # noqa: E402
from run import count_failures  # noqa: E402
from speed import factors  # noqa: E402
from workloads import Instance, build  # noqa: E402

from ballotcontrol import (  # noqa: E402
    ControlSpec,
    Election,
    brute_force_control,
    build_problem,
    export_mps,
    winner_for_rule,
)

# The README's four-candidate example.
README = ((1, 2, 3, 4), (1, 3, 2, 4), (4, 3, 2, 1))


def test_tallies_reproduce_the_worked_example():
    # Worked by hand: candidate 1 tops two of three ballots, so it wins
    # every rule (range totals 6, 4, 5, 3; maximin minima 2, 1, 1, 1).
    for rule in ("range", "condorcet", "plurality", "maximin", "bucklin"):
        assert tally_winner(rule, README, (1, 1, 1), range(1, 5)) == 1, rule
    # Without voter 2, Bucklin depths are 4, 3, 3, 4: a tie, no winner.
    assert tally_winner("bucklin", README, (1, 0, 1), range(1, 5)) is None
    # Without candidate 1 every ballot tops a different candidate, and
    # Bucklin depths are 2, 2, 3.
    assert tally_winner("plurality", README, (1, 1, 1), (2, 3, 4)) is None
    assert tally_winner("bucklin", README, (1, 1, 1), (2, 3, 4)) is None
    # Nobody voting means no winner; one candidate left wins alone.
    assert tally_winner("condorcet", README, (0, 0, 0), range(1, 5)) is None
    assert tally_winner("maximin", README, (1, 1, 1), (3,)) == 3


def test_tallies_agree_with_the_library_on_random_profiles():
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(2, 5), rng.randint(1, 9)
        rankings = tuple(tuple(rng.sample(range(1, m + 1), m)) for _ in range(n))
        for rule in ("condorcet", "plurality", "maximin", "bucklin"):
            expected = winner_for_rule(rule, Election.from_rankings(rankings)).winner
            assert tally_winner(rule, rankings, (1,) * n, range(1, m + 1)) == expected


def _instance(rule, mode, target, rankings, action="delete-voters"):
    return Instance("t", rule, action, mode, target, len(rankings[0]), tuple(rankings), (1,) * len(rankings))


def test_type_count_program_matches_the_oracle():
    rng = random.Random(3)
    for _ in range(40):
        rankings = [tuple(rng.sample(range(1, 5), 4)) for _ in range(rng.randint(2, 8))]
        for rule in ("range", "condorcet"):
            for mode in ("constructive", "destructive"):
                inst = _instance(rule, mode, rng.randint(1, 4), rankings)
                election = Election.from_rankings(rankings)
                if rule == "range":
                    election = Election.from_scores([[4 - 1 - r.index(c) for r in rankings] for c in range(1, 5)])
                oracle = brute_force_control(election, ControlSpec(rule, "delete-voters", mode, inst.target))
                assert checks.type_count_optimum(inst) == (oracle.status, oracle.objective)


def test_enumeration_and_mps_read_match_the_oracle(tmp_path):
    rng = random.Random(5)
    for _ in range(10):
        rankings = [tuple(rng.sample(range(1, 6), 5)) for _ in range(6)]
        inst = _instance("bucklin", "constructive", 2, rankings, action="delete-candidates")
        spec = ControlSpec("bucklin", "delete-candidates", "constructive", 2)
        election = Election.from_rankings(rankings)
        oracle = brute_force_control(election, spec)
        assert checks.enumerated_optimum(inst) == (oracle.status, oracle.objective)
        if checks._Highs is None:
            continue
        path = tmp_path / "model.mps"
        path.write_text(export_mps(build_problem(election, spec)[0].model))
        assert checks.mps_optimum(path) == (oracle.status, oracle.objective)


# Candidate 1 already wins plurality on the worked example, so constructive
# control keeps all four candidates.
CONSTRUCTIVE = _instance("plurality", "constructive", 1, README, action="delete-candidates")
OPTIMUM = Reference("Optimal", 4, ("enumeration",))


def _failed(inst, ref, status, objective, kept, deleted):
    problems = kept_set_problems(inst, status, objective, kept, deleted)
    record = [(inst, status, objective, problems, 0.1)]
    return count_failures(record, {inst.id: ref})


def test_a_right_answer_passes():
    assert checks.enumerated_optimum(CONSTRUCTIVE) == ("Optimal", 4)
    assert _failed(CONSTRUCTIVE, OPTIMUM, "Optimal", 4, (1, 2, 3, 4), ()) == ([], 0)


def test_an_objective_one_too_high_fails():
    failures, wrong = _failed(CONSTRUCTIVE, Reference("Optimal", 3, ("milp-model",)), "Optimal", 4, (1, 2, 3, 4), ())
    assert len(failures) == 1 and wrong == 1
    assert reference_problems(OPTIMUM, "Optimal", 5)


def test_a_kept_set_where_the_target_does_not_win_fails():
    # Keeping only voters 1 and 3 ties Bucklin depths: candidate 1 is not
    # the winner, so the constructive claim is false even at the optimum size.
    inst = _instance("bucklin", "constructive", 1, README)
    failures, wrong = _failed(inst, Reference("Optimal", 2, ("milp-model",)), "Optimal", 2, (1, 3), (2,))
    assert len(failures) == 1 and wrong == 1
    assert any("goal missed" in p for p in failures[0]["problems"])


def test_a_false_infeasible_fails():
    failures, wrong = _failed(CONSTRUCTIVE, OPTIMUM, "Infeasible", None, (), ())
    assert len(failures) == 1 and wrong == 1


def test_disagreeing_references_fail_every_answer():
    ref = Reference("Optimal", 4, ("enumeration", "mps-read"), conflict="references disagree")
    failures, wrong = _failed(CONSTRUCTIVE, ref, "Optimal", 4, (1, 2, 3, 4), ())
    assert len(failures) == 1 and wrong == 1


def test_a_crash_fails_without_making_the_run_wrong():
    ref = Reference("Optimal", 4, ("enumeration",), export_error="exported model unusable")
    record = [(CONSTRUCTIVE, "error", None, ["SolverError: boom"], 0.1)]
    assert count_failures(record, {"t": ref})[1] == 0
    failures, wrong = _failed(CONSTRUCTIVE, ref, "Optimal", 4, (1, 2, 3, 4), ())
    assert len(failures) == 1 and wrong == 0


def test_the_same_seed_gives_the_same_inputs():
    for workload in ("voters-large", "search-deep", "candidates-wide"):
        first = build(workload, 11)
        assert [i.text() for i in first] == [i.text() for i in build(workload, 11)]
        assert [i.text() for i in first] != [i.text() for i in build(workload, 12)]


def test_speed_factors_follow_the_samples_around_each_step():
    # Step k lies between samples k and k + 1; a lone outlier does not move it.
    assert factors([1.0, 1.0, 1.0, 2.0, 2.0, 2.0]) == [1.0, 1.0, 1.5, 2.0, 2.0]
    assert factors([1.0, 1.0, 9.0, 1.0, 1.0, 1.0, 1.0]) == [1.0] * 6


def test_the_command_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""


@pytest.mark.parametrize("rule", ["maximin", "bucklin"])
def test_encoded_model_milp_matches_the_oracle(rule):
    rng = random.Random(9)
    for _ in range(5):
        rankings = [tuple(rng.sample(range(1, 5), 4)) for _ in range(7)]
        spec = ControlSpec(rule, "delete-voters", "destructive", 1)
        election = Election.from_rankings(rankings)
        oracle = brute_force_control(election, spec)
        assert checks.model_optimum(build_problem(election, spec)[0].model) == (oracle.status, oracle.objective)
