import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ballotcontrol import (
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


def rankings_strategy(max_n=6, max_m=5):
    def build(m, n, seed):
        import random

        rng = random.Random(seed)
        return tuple(tuple(rng.sample(range(1, m + 1), m)) for _ in range(n))

    return st.builds(
        build,
        st.integers(1, max_m),
        st.integers(1, max_n),
        st.integers(0, 10_000),
    )


class TestTypes:
    def test_strict_profile_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            StrictProfile(((1, 2), (2, 2)))

    def test_strict_profile_rejects_no_candidates(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            StrictProfile(((),))

    @pytest.mark.parametrize("index", [0, -1, 4])
    def test_candidate_name_rejects_unknown_index(self, index):
        election = Election.from_rankings([(1, 2, 3)])
        with pytest.raises(ValueError, match="out of range 1..3"):
            election.candidate_name(index)

    def test_tied_profile_partition_check(self):
        with pytest.raises(ValueError):
            TiedProfile((((1, 2), (2,)),))

    def test_score_matrix_rejects_negative(self):
        with pytest.raises(ValueError):
            ScoreMatrix(((1, -1),))

    @pytest.mark.parametrize(
        "scores",
        [
            # the control program's ">= 1" margin holds for integers only:
            # these two once gave wrong range voter-deletion answers
            [[2.5, 0], [1, 1]],
            [[0.1, 0.2], [0.3, 0.0]],
        ],
    )
    def test_score_matrix_rejects_non_integers(self, scores):
        with pytest.raises(ValueError, match="integers"):
            Election.from_scores(scores)

    def test_score_matrix_accepts_numpy_integers(self):
        election = Election.from_scores(np.array([[2, 0], [1, 1]]))
        assert election.preferences.scores == ((2, 0), (1, 1))

    def test_rankings_reject_non_integer_labels(self):
        # {1.0, 2.0, 3.0} == {1, 2, 3}: the permutation check alone let
        # these through, and the condorcet winner then died with a TypeError
        with pytest.raises(ValueError, match="integers"):
            Election.from_rankings([(1.0, 2.0, 3.0), (2.0, 1.0, 3.0), (1.0, 3.0, 2.0)])
        with pytest.raises(ValueError, match="integers"):
            StrictProfile(((1, 2, 3), (2, 1.0, 3)))

    def test_float_ballot_equal_to_an_integer_ballot_is_rejected(self):
        # (1.0, 2.0, 3.0) == (1, 2, 3), so the two are one ballot to the
        # once-per-ballot permutation check; the label check sees both.
        with pytest.raises(ValueError, match="integers"):
            StrictProfile(((1, 2, 3), (3, 1, 2), (1.0, 2.0, 3.0)))

    @pytest.mark.parametrize(
        "rankings,voter",
        [
            (((1, 2, 3), (3, 3, 1), (1, 2, 3), (2, 2, 1)), 2),
            (((1, 2, 3), (1, 2, 3), (2, 2, 1), (3, 3, 1), (2, 2, 1)), 3),
            (((2, 1, 3), (1, 2, 3), (2, 1, 3), (1, 2)), 4),
        ],
    )
    def test_first_voter_with_a_bad_ballot_is_named(self, rankings, voter):
        with pytest.raises(ValueError) as error:
            StrictProfile(rankings)
        assert str(error.value) == f"ranking of voter {voter} is not a permutation of 1..3"

    def test_tie_groups_reject_non_integer_labels(self):
        with pytest.raises(ValueError, match="integers"):
            TiedProfile((((1.0, 2.0), (3.0,)),))

    def test_rankings_accept_numpy_integers(self):
        election = Election.from_rankings(np.array([[2, 1, 3], [2, 3, 1]]))
        assert election.preferences.positions == ((1, 0, 2), (2, 0, 1))
        TiedProfile((((np.int64(2),), (np.int64(1),)),))

    def test_election_dimension_check(self):
        with pytest.raises(ValueError):
            Election.from_rankings([(1, 2)]).__class__(
                Election.from_rankings([(1, 2)]).candidates,
                Election.from_rankings([(1, 2), (2, 1)]).voters,
                StrictProfile(((1, 2),)),
            )

    @pytest.mark.parametrize("voters", [(1, 2), range(0, 2), range(1, 2), range(1, 4)])
    def test_election_voters_must_be_range_from_one(self, voters):
        election = Election.from_rankings([(1, 2), (2, 1)])
        with pytest.raises(ValueError):
            Election(election.candidates, voters, election.preferences)

    def test_election_fields_pass_back_to_constructor(self):
        strict = Election.from_rankings([(2, 1), (1, 2), (2, 1)])
        scores = Election.from_scores([[1, 1, 0], [0, 2, 1]])
        for election in (strict, scores):
            assert election.candidates == ("c1", "c2")
            assert election.voters == range(1, 4)
            for payload in (strict.preferences, scores.preferences):
                again = Election(election.candidates, election.voters, payload)
                assert again == Election(("c1", "c2"), range(1, 4), payload)
                assert again.candidate_name(2) == "c2"

    def test_election_rejects_tied_payload(self):
        election = Election.from_rankings([(1, 2)])
        with pytest.raises(TypeError):
            Election(election.candidates, election.voters, TiedProfile((((1,), (2,)),)))

    def test_control_spec_rejects_unsupported_pair(self):
        with pytest.raises(ValueError):
            ControlSpec("range", "delete-candidates", "constructive", 1)
        with pytest.raises(ValueError):
            ControlSpec("plurality", "delete-voters", "constructive", 1)


class TestNormalizeTarget:
    def test_identity_when_target_first(self, worked_election):
        spec = ControlSpec("condorcet", "delete-voters", "constructive", 1)
        election, new_spec = normalize_target(worked_election, spec)
        assert election is worked_election
        assert new_spec.target == 1

    def test_swap_moves_target_to_front(self, worked_election):
        spec = ControlSpec("condorcet", "delete-voters", "constructive", 3)
        election, new_spec = normalize_target(worked_election, spec)
        assert new_spec.target == 1
        # swap of 1 and 3 applied to every ranking
        assert election.preferences.rankings[0] == (3, 2, 1, 4)
        assert election.candidate_name(1) == "c3"

    def test_worked_profile_target_four(self, worked_election):
        spec = ControlSpec("condorcet", "delete-voters", "constructive", 4)
        election, _ = normalize_target(worked_election, spec)
        # v3 ranked c4 first, so after the swap its ranking starts with 1
        assert election.preferences.rankings[2][0] == 1
        for r in election.preferences.rankings:
            assert sorted(r) == [1, 2, 3, 4]

    def test_unknown_target(self, worked_election):
        spec = ControlSpec("condorcet", "delete-voters", "constructive", 9)
        with pytest.raises(ValueError):
            normalize_target(worked_election, spec)

    @given(rankings_strategy(), st.integers(1, 5))
    def test_swapping_twice_is_identity(self, rankings, target):
        m = len(rankings[0])
        if target > m:
            target = m
        election = Election.from_rankings(rankings)
        spec = ControlSpec("condorcet", "delete-voters", "constructive", target)
        once, spec_once = normalize_target(election, spec)
        twice, _ = normalize_target(
            once, ControlSpec("condorcet", "delete-voters", "constructive", target)
        )
        assert twice.preferences == election.preferences

    def test_score_matrix_swap(self):
        election = Election.from_scores([[1, 2], [3, 4], [5, 6]])
        spec = ControlSpec("range", "delete-voters", "constructive", 3)
        swapped, _ = normalize_target(election, spec)
        assert swapped.preferences.scores == ((5, 6), (3, 4), (1, 2))


class TestRestrictToVoters:
    def test_keep_all_is_identity(self, worked_election):
        restricted = restrict_to_voters(worked_election, {1, 2, 3})
        assert restricted.preferences == worked_election.preferences

    def test_keep_first_two(self, worked_election):
        restricted = restrict_to_voters(worked_election, {1, 2})
        assert restricted.n == 2
        assert all(r[0] == 1 for r in restricted.preferences.rankings)

    def test_keep_third(self, worked_election):
        restricted = restrict_to_voters(worked_election, {3})
        assert restricted.preferences.rankings == ((4, 3, 2, 1),)

    def test_empty_keep_rejected(self, worked_election):
        with pytest.raises(ValueError):
            restrict_to_voters(worked_election, set())

    @given(rankings_strategy(), st.sets(st.integers(1, 6)), st.sets(st.integers(1, 6)))
    def test_nested_restriction_equals_intersection(self, rankings, outer, inner):
        election = Election.from_rankings(rankings)
        outer = {v for v in outer if v <= election.n}
        if not outer:
            outer = {1}
        step = restrict_to_voters(election, outer)
        # relabel inner through the outer restriction
        ordered = sorted(outer)
        inner = {v for v in inner if v <= len(ordered)}
        if not inner:
            inner = {1}
        nested = restrict_to_voters(step, inner)
        direct = restrict_to_voters(election, {ordered[i - 1] for i in inner})
        assert nested.preferences == direct.preferences


class TestRestrictToCandidates:
    def test_keep_all_is_identity(self, worked_election):
        restricted = restrict_to_candidates(worked_election, {1, 2, 3, 4})
        assert restricted.preferences == worked_election.preferences

    def test_keep_one_and_four(self, worked_election):
        restricted = restrict_to_candidates(worked_election, {1, 4})
        # kept candidates relabeled 1..2 in ascending original order
        assert restricted.preferences.rankings == ((1, 2), (1, 2), (2, 1))
        assert restricted.candidates == ("c1", "c4")

    def test_singleton(self, worked_election):
        restricted = restrict_to_candidates(worked_election, {1})
        assert restricted.preferences.rankings == ((1,), (1,), (1,))

    def test_empty_keep_rejected(self, worked_election):
        with pytest.raises(ValueError):
            restrict_to_candidates(worked_election, set())

    @given(rankings_strategy(), st.sets(st.integers(1, 5), min_size=1))
    def test_relative_order_preserved(self, rankings, keep):
        election = Election.from_rankings(rankings)
        keep = {c for c in keep if c <= election.m}
        if not keep:
            keep = {1}
        restricted = restrict_to_candidates(election, keep)
        ordered = sorted(keep)
        for orig, new in zip(election.preferences.rankings, restricted.preferences.rankings):
            for a_pos in range(len(new)):
                for b_pos in range(a_pos + 1, len(new)):
                    a, b = ordered[new[a_pos] - 1], ordered[new[b_pos] - 1]
                    assert orig.index(a) < orig.index(b)

    def test_score_matrix_rows_dropped(self):
        election = Election.from_scores([[1, 2], [3, 4], [5, 6]])
        restricted = restrict_to_candidates(election, {1, 3})
        assert restricted.preferences.scores == ((1, 2), (5, 6))


def test_swap_index():
    assert [swap_index(i, 1, 3) for i in (1, 2, 3, 4)] == [3, 2, 1, 4]


def test_positions_shared_across_threads():
    # positions is a view of the ballot record, which construction builds:
    # threads that read a fresh profile at once must all read the same table
    rng = random.Random(5)
    rankings = tuple(tuple(rng.sample(range(1, 7), 6)) for _ in range(300))
    expected = tuple(tuple(r.index(c) for c in range(1, 7)) for r in rankings)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            profile = StrictProfile(rankings)
            seen = []
            threads = [
                threading.Thread(target=lambda: seen.append(profile.positions))
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 8 and all(table == expected for table in seen)
            assert profile.positions == expected
    finally:
        sys.setswitchinterval(switch)
