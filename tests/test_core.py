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

    def test_tied_profile_partition_check(self):
        with pytest.raises(ValueError):
            TiedProfile((((1, 2), (2,)),))

    def test_score_matrix_rejects_negative(self):
        with pytest.raises(ValueError):
            ScoreMatrix(((1, -1),))

    def test_election_dimension_check(self):
        with pytest.raises(ValueError):
            Election.from_rankings([(1, 2)]).__class__(
                Election.from_rankings([(1, 2)]).candidates,
                Election.from_rankings([(1, 2), (2, 1)]).voters,
                StrictProfile(((1, 2),)),
            )

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
        assert [c.name for c in restricted.candidates] == ["c1", "c4"]

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
