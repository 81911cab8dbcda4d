import itertools
import random

import pytest

from ballotcontrol import (
    Assignment,
    ControlSpec,
    Election,
    ScoreMatrix,
    StrictProfile,
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
    solve,
)
from genutil import enumerate_binary_optimum, models_equal, random_profile

WORKED_ROW_MATRIX = ((1, 1, 0), (1, 1, 0), (1, 1, 0))

WORKED_CUBES = (
    ((0, 1, 1, 1), (0, 0, 1, 1), (0, 0, 0, 1), (0, 0, 0, 0)),
    ((0, 1, 1, 1), (0, 0, 0, 1), (0, 1, 0, 1), (0, 0, 0, 0)),
    ((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)),
)

WORKED_POSITION_CUBES = (
    ((1, 1, 1, 1), (0, 1, 1, 1), (0, 0, 1, 1), (0, 0, 0, 1)),
    ((1, 1, 1, 1), (0, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1)),
    ((0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)),
)


@pytest.fixture
def worked_profile(worked_rankings):
    return StrictProfile(worked_rankings)


def optimum(problem):
    result = solve(problem.model)
    return result.status, result.objective


class TestMatrices:
    def test_dominance_rows_worked_profile(self, worked_profile):
        assert dominance_row_matrix(worked_profile) == WORKED_ROW_MATRIX

    def test_dominance_rows_reject_single_candidate(self):
        with pytest.raises(ValueError):
            dominance_row_matrix(StrictProfile(((1,),)))

    def test_dominance_rows_single_voter_top(self):
        assert dominance_row_matrix(StrictProfile(((1, 2, 3),))) == ((1,), (1,))

    def test_reversing_a_voter_flips_their_column(self, worked_rankings):
        flipped = list(worked_rankings)
        flipped[1] = tuple(reversed(flipped[1]))
        a = dominance_row_matrix(StrictProfile(worked_rankings))
        b = dominance_row_matrix(StrictProfile(tuple(flipped)))
        for i in range(3):
            assert b[i][1] == 1 - a[i][1]
            assert b[i][0] == a[i][0] and b[i][2] == a[i][2]

    def test_dominance_cube_worked_profile(self, worked_profile):
        assert dominance_cube(worked_profile) == WORKED_CUBES

    def test_dominance_cube_is_strict_total_order(self):
        rng = random.Random(3)
        profile = StrictProfile(tuple(random_profile(rng, 5, 6)))
        for matrix in dominance_cube(profile):
            m = len(matrix)
            for i in range(m):
                assert matrix[i][i] == 0
                for k in range(m):
                    if i != k:
                        assert matrix[i][k] + matrix[k][i] == 1
            assert sorted(sum(row) for row in matrix) == list(range(m))

    def test_position_cube_worked_profile(self, worked_profile):
        assert bucklin_position_cube(worked_profile) == WORKED_POSITION_CUBES

    def test_position_cube_step_pattern(self):
        rng = random.Random(4)
        rankings = tuple(random_profile(rng, 4, 5))
        profile = StrictProfile(rankings)
        for j, matrix in enumerate(bucklin_position_cube(profile)):
            for i, row in enumerate(matrix, start=1):
                assert row[-1] == 1
                rank = rankings[j].index(i) + 1
                assert sum(row) == profile.m - rank + 1
                assert list(row) == [0] * (rank - 1) + [1] * (profile.m - rank + 1)


class TestRangeEncoder:
    def test_single_supporter(self):
        problem = encode_re(ScoreMatrix(((1,), (0,))))
        assert optimum(problem) == ("Optimal", 1)

    def test_conflicting_approvals(self):
        problem = encode_re(ScoreMatrix(((1, 0), (0, 1))))
        assert optimum(problem) == ("Optimal", 1)

    def test_hopeless_target_infeasible(self):
        problem = encode_re(ScoreMatrix(((0, 0), (1, 1))))
        assert optimum(problem) == ("Infeasible", None)

    def test_single_candidate_keeps_everyone(self):
        problem = encode_re(ScoreMatrix(((0, 3, 1),)))
        assert optimum(problem) == ("Optimal", 3)


class TestCondorcetEncoder:
    def test_worked_profile(self, worked_profile):
        assert optimum(encode_ce(worked_profile)) == ("Optimal", 3)

    def test_target_last_everywhere_infeasible(self):
        profile = StrictProfile(((2, 3, 1), (3, 2, 1)))
        assert optimum(encode_ce(profile)) == ("Infeasible", None)

    def test_cycle_collapses_to_single_supporter(self):
        # after any single deletion one duel still ties 1-1, so only a
        # lone supporter makes the target the strict pairwise winner
        profile = StrictProfile(((1, 2, 3), (2, 3, 1), (3, 1, 2)))
        assert optimum(encode_ce(profile)) == ("Optimal", 1)

    def test_single_candidate_keeps_everyone(self):
        profile = StrictProfile(((1,), (1,)))
        assert optimum(encode_ce(profile)) == ("Optimal", 2)


class TestPluralityEncoder:
    def test_worked_profile(self, worked_profile):
        assert optimum(encode_pe(worked_profile)) == ("Optimal", 4)

    def test_front_runner_must_go(self):
        profile = StrictProfile(((2, 1, 3), (2, 1, 3)))
        assert optimum(encode_pe(profile)) == ("Optimal", 2)

    def test_single_candidate(self):
        assert optimum(encode_pe(StrictProfile(((1,), (1,))))) == ("Optimal", 1)

    def test_every_feasible_assignment_keeps_target(self):
        profile = StrictProfile(((2, 1, 3), (3, 1, 2)))
        problem = encode_pe(profile)
        model = problem.model
        names = [v.name for v in model.variables]
        x1 = names.index("x_1")
        found_feasible = False
        for bits in itertools.product((0, 1), repeat=len(names)):
            from ballotcontrol import check_assignment

            if check_assignment(model, Assignment(dict(zip(names, bits)))).ok:
                found_feasible = True
                assert bits[x1] == 1
        assert found_feasible


class TestMaximinEncoder:
    def test_worked_profile(self, worked_profile):
        assert optimum(encode_mme(worked_profile)) == ("Optimal", 3)

    def test_single_voter_with_target_on_top(self):
        assert optimum(encode_mme(StrictProfile(((1, 2, 3),)))) == ("Optimal", 1)

    def test_target_always_last_infeasible(self):
        profile = StrictProfile(((2, 3, 1), (3, 2, 1), (2, 3, 1)))
        assert optimum(encode_mme(profile)) == ("Infeasible", None)

    def test_single_candidate_keeps_everyone(self):
        profile = StrictProfile(((1,), (1,), (1,)))
        assert optimum(encode_mme(profile)) == ("Optimal", 3)


class TestBucklinVoterEncoder:
    def test_worked_profile(self, worked_profile):
        assert optimum(encode_bev(worked_profile)) == ("Optimal", 3)

    def test_single_voter_with_target_on_top(self):
        assert optimum(encode_bev(StrictProfile(((1, 2),)))) == ("Optimal", 1)

    def test_dominated_target_infeasible(self):
        profile = StrictProfile(((2, 1, 3), (3, 2, 1)))
        # candidate 2 is above candidate 1 in every ranking
        assert optimum(encode_bev(profile)) == ("Infeasible", None)

    def test_single_candidate_keeps_everyone(self):
        assert optimum(encode_bev(StrictProfile(((1,), (1,), (1,))))) == ("Optimal", 3)


class TestBucklinCandidateEncoder:
    def test_worked_profile(self, worked_profile):
        assert optimum(encode_bec(worked_profile)) == ("Optimal", 4)

    def test_single_candidate(self):
        assert optimum(encode_bec(StrictProfile(((1,), (1,))))) == ("Optimal", 1)

    def test_two_candidates_front_runner_deleted(self):
        profile = StrictProfile(((2, 1), (2, 1)))
        assert optimum(encode_bec(profile)) == ("Optimal", 1)

    def test_every_feasible_assignment_keeps_target(self):
        problem = encode_bec(StrictProfile(((2, 1), (1, 2))))
        model = problem.model
        names = [v.name for v in model.variables]
        x1 = names.index("x_1")
        from ballotcontrol import check_assignment

        found_feasible = False
        for bits in itertools.product((0, 1), repeat=len(names)):
            if check_assignment(model, Assignment(dict(zip(names, bits)))).ok:
                found_feasible = True
                assert bits[x1] == 1
        assert found_feasible


ENCODERS = (encode_re, encode_ce, encode_pe, encode_mme, encode_bev, encode_bec)


class TestMakeDestructive:
    """Destructive programs, which every encoder builds for mode="destructive"."""

    @pytest.mark.parametrize("encoder", ENCODERS, ids=lambda f: f.__name__)
    def test_rejects_unknown_mode(self, encoder, worked_profile):
        payload = ScoreMatrix(((1, 0), (0, 1))) if encoder is encode_re else worked_profile
        with pytest.raises(ValueError, match="unknown mode"):
            encoder(payload, "neutral")

    def test_re_target_already_loses(self):
        # target never wins regardless, so nobody needs to be deleted
        problem = encode_re(ScoreMatrix(((0, 0), (1, 1))), "destructive")
        assert optimum(problem) == ("Optimal", 2)

    def test_re_tie_by_deleting_one_voter(self):
        problem = encode_re(ScoreMatrix(((1, 1), (1, 0))), "destructive")
        assert optimum(problem) == ("Optimal", 1)

    def test_ce_cycle_target_not_winner(self):
        profile = StrictProfile(((1, 2, 3), (2, 3, 1), (3, 1, 2)))
        problem = encode_ce(profile, "destructive")
        assert optimum(problem) == ("Optimal", 3)

    def test_re_single_candidate_impossible(self):
        problem = encode_re(ScoreMatrix(((2, 1),)), "destructive")
        assert optimum(problem) == ("Infeasible", None)

    def test_ce_single_candidate_impossible(self):
        problem = encode_ce(StrictProfile(((1,), (1,))), "destructive")
        assert [c.tag for c in problem.model.constraints] == ["dest:impossible"]
        assert optimum(problem) == ("Infeasible", None)

    def test_mme_single_candidate_impossible(self):
        problem = encode_mme(StrictProfile(((1,), (1,))), "destructive")
        assert [c.tag for c in problem.model.constraints] == ["dest:impossible"]
        assert optimum(problem) == ("Infeasible", None)

    def test_bev_single_candidate_impossible(self):
        problem = encode_bev(StrictProfile(((1,), (1,))), "destructive")
        assert optimum(problem) == ("Infeasible", None)

    def test_bec_single_candidate_impossible(self):
        problem = encode_bec(StrictProfile(((1,),)), "destructive")
        assert optimum(problem) == ("Infeasible", None)

    def test_pe_single_candidate_impossible(self):
        problem = encode_pe(StrictProfile(((1,), (1,))), "destructive")
        assert optimum(problem) == ("Infeasible", None)

    def test_destructive_matches_enumeration_on_small_bev(self):
        rng = random.Random(99)
        for _ in range(6):
            profile = StrictProfile(tuple(random_profile(rng, rng.randint(1, 4), 3)))
            problem = encode_bev(profile, "destructive")
            assert optimum(problem) == enumerate_binary_optimum_mixed(problem.model)


def enumerate_binary_optimum_mixed(model):
    """Enumeration oracle tolerating one bounded integer variable."""
    integer_vars = [v for v in model.variables if v.kind == "integer"]
    if not integer_vars:
        return enumerate_binary_optimum(model)
    assert len(integer_vars) == 1
    best = None
    var = integer_vars[0]
    binaries = [v.name for v in model.variables if v.kind == "binary"]
    for value in range(int(var.lower), int(var.upper) + 1):
        for bits in itertools.product((0, 1), repeat=len(binaries)):
            from ballotcontrol import check_assignment

            point = dict(zip(binaries, bits))
            point[var.name] = value
            report = check_assignment(model, Assignment(point))
            if report.ok:
                if best is None or report.objective > best:
                    best = report.objective
    return ("Optimal", best) if best is not None else ("Infeasible", None)


class TestEncodeControlDispatch:
    def test_requires_normalized_target(self, worked_election):
        with pytest.raises(ValueError):
            encode_control(
                worked_election,
                ControlSpec("condorcet", "delete-voters", "constructive", 2),
            )

    def test_rule_payload_mismatch(self, worked_election):
        spec = ControlSpec("range", "delete-voters", "constructive", 1)
        with pytest.raises(TypeError):
            encode_control(worked_election, spec)

    def test_destructive_dispatch(self, worked_election):
        spec = ControlSpec("condorcet", "delete-voters", "destructive", 1)
        problem = encode_control(worked_election, spec)
        expected = encode_ce(worked_election.preferences, "destructive")
        assert models_equal(problem.model, expected.model)
        assert problem.decision_vars == expected.decision_vars


class TestDecode:
    def test_all_ones_keeps_everyone(self, worked_election):
        spec = ControlSpec("condorcet", "delete-voters", "constructive", 1)
        problem = encode_control(worked_election, spec)
        result = solve(problem.model)
        solution = decode(problem, result.incumbent, worked_election, spec)
        assert solution.kept == (1, 2, 3)
        assert solution.deleted == ()
        assert solution.verification["winner"] == 1

    def test_keep_only_target(self, worked_election):
        spec = ControlSpec("plurality", "delete-candidates", "constructive", 1)
        problem = encode_control(worked_election, spec)
        values = {v.name: 0 for v in problem.model.variables}
        values["x_1"] = 1
        solution = decode(problem, Assignment(values), worked_election, spec)
        assert solution.kept == (1,)
        assert solution.objective == 1

    def test_mismatch_raises(self, worked_election):
        spec = ControlSpec("plurality", "delete-candidates", "constructive", 1)
        problem = encode_control(worked_election, spec)
        values = {v.name: 0 for v in problem.model.variables}
        values["x_2"] = 1  # keeps only a rival: the target cannot win
        with pytest.raises(VerificationError):
            decode(problem, Assignment(values), worked_election, spec)
