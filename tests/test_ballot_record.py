"""The ballot record against the per-voter code it replaced.

Every function below named `ref_*` is the per-voter implementation the
library had before profiles kept their distinct ballots once: it checks,
ranks, relabels, restricts and tallies voter by voter. The record-based
library must give the same outputs and raise the same errors with the same
messages, on random profiles that mix shared ballot objects, fresh tuples,
equal-valued distinct objects and numpy integer labels.
"""

import random
from collections import Counter
from numbers import Integral

import numpy as np
import pytest

from ballotcontrol import (
    ControlSpec,
    Election,
    PrefLibDocument,
    StrictProfile,
    TiedProfile,
    encode_control,
    expand_scores,
    expand_voters,
    export_lp,
    export_mps,
    normalize_target,
    plurality_winner,
    restrict_to_candidates,
    restrict_to_voters,
    swap_index,
    tied_to_scores,
)
from ballotcontrol.rules import _advantages, bucklin_psi


def ref_integral(rows):
    return all(issubclass(t, Integral) for t in {type(x) for row in rows for x in row})


def ref_check_strict(rankings):
    if not rankings:
        raise ValueError("profile needs at least one voter")
    if not rankings[0]:
        raise ValueError("profile needs at least one candidate")
    if not ref_integral(rankings):
        raise ValueError("candidate labels must be integers")
    m = len(rankings[0])
    expected = set(range(1, m + 1))
    for ranking in dict.fromkeys(rankings):
        if set(ranking) != expected or len(ranking) != m:
            v = rankings.index(ranking) + 1
            raise ValueError(f"ranking of voter {v} is not a permutation of 1..{m}")


def ref_positions(rankings):
    labels = range(1, len(rankings[0]) + 1)
    return tuple(tuple(map(r.index, labels)) for r in rankings)


def ref_normalize(rankings, t):
    return tuple(tuple(swap_index(c, 1, t) for c in r) for r in rankings)


def ref_restrict_voters(rankings, keep):
    return tuple(rankings[j - 1] for j in sorted(set(keep)))


def ref_restrict_candidates(rankings, keep):
    relabel = {orig: new for new, orig in enumerate(sorted(set(keep)), start=1)}
    return tuple(tuple(relabel[c] for c in r if c in relabel) for r in rankings)


def ref_advantages(rankings):
    ballots, cs = Counter(ref_positions(rankings)).items(), range(len(rankings[0]))
    return [[sum(k for p, k in ballots if p[a] < p[b]) for b in cs] for a in cs]


def ref_bucklin_psi(rankings, c):
    m, n = len(rankings[0]), len(rankings)
    places = Counter(p[c - 1] for p in ref_positions(rankings))
    for k in range(1, m + 1):
        if 2 * sum(count for place, count in places.items() if place < k) > n:
            return k
    return m + 1


def ref_plurality(rankings):
    tops = [0] * len(rankings[0])
    for r in rankings:
        tops[r[0] - 1] += 1
    return tuple(tops)


def ref_check_tied(groups):
    if not groups:
        raise ValueError("profile needs at least one voter")
    if not ref_integral(group for voter_groups in groups for group in voter_groups):
        raise ValueError("candidate labels must be integers")
    m = sum(len(g) for g in groups[0])
    expected = set(range(1, m + 1))
    for v, voter_groups in enumerate(groups, start=1):
        seen = [c for group in voter_groups for c in group]
        if not voter_groups or any(not group for group in voter_groups):
            raise ValueError(f"voter {v} has an empty tie group")
        if set(seen) != expected or len(seen) != m:
            raise ValueError(f"tie groups of voter {v} do not partition 1..{m}")


def ref_tied_to_scores(groups, m):
    columns = []
    for voter_groups in groups:
        col = [0] * m
        for g, group in enumerate(voter_groups, start=1):
            for c in group:
                col[c - 1] = m - g
        columns.append(col)
    return tuple(tuple(col[i] for col in columns) for i in range(m))


def outcome(call, *args):
    """The call's result, or its error as (type, message)."""
    try:
        return call(*args)
    except (ValueError, TypeError) as error:
        return type(error), str(error)


def mixed_voters(rng, ballots, n):
    """n voters casting `ballots`: each voter gets the shared object, a
    fresh tuple, or a copy with numpy integer labels."""
    voters = []
    for _ in range(n):
        ballot = rng.choice(ballots)
        kind = rng.randrange(3)
        if kind == 1:
            ballot = tuple(list(ballot))
        elif kind == 2:
            ballot = tuple(np.int64(c) if isinstance(c, int) else c for c in ballot)
        voters.append(ballot)
    return tuple(voters)


def random_rankings(rng, m, n, k):
    ballots = [tuple(rng.sample(range(1, m + 1), m)) for _ in range(k)]
    return mixed_voters(rng, ballots, n)


def spoiled(rng, rankings):
    """`rankings` with one voter's ballot made invalid, in one of several ways."""
    voters = list(rankings)
    j = rng.randrange(len(voters))
    ballot = list(voters[j])
    kind = rng.randrange(4)
    if kind == 0:
        ballot[rng.randrange(len(ballot))] = 0
    elif kind == 1:
        ballot.append(len(ballot) + 1)
    elif kind == 2:
        ballot[rng.randrange(len(ballot))] = float(ballot[0])
    else:
        ballot[0] = np.float64(ballot[0])
    voters[j] = tuple(ballot)
    # The same bad ballot again at a later voter, as a shared object.
    if rng.random() < 0.5 and j + 1 < len(voters):
        voters[rng.randrange(j + 1, len(voters))] = voters[j]
    return tuple(voters)


def assert_record_consistent(profile):
    record = profile.ballots
    rankings = profile.rankings
    distinct = tuple(dict.fromkeys(rankings))
    assert record.rankings == distinct
    assert [record.rankings[b] for b in record.index.tolist()] == list(rankings)
    assert record.counts.tolist() == [rankings.count(r) for r in distinct]
    assert record.index.dtype == record.counts.dtype == record.places.dtype == np.intp
    assert not record.index.flags.writeable


def check_profile(rankings):
    got = outcome(StrictProfile, rankings)
    expected = outcome(ref_check_strict, rankings)
    if expected is not None:
        assert got == expected
        return None
    assert got.rankings is rankings
    assert got.positions == ref_positions(rankings)
    assert got == StrictProfile(tuple(map(tuple, map(list, rankings))))
    assert hash(got) == hash(StrictProfile(rankings))
    assert_record_consistent(got)
    return got


def check_derived(got, expected_rankings):
    """A profile built by the private constructor equals one checked from
    scratch, record included."""
    fresh = StrictProfile(expected_rankings)
    assert got.rankings == expected_rankings and got == fresh
    assert got.positions == fresh.positions == ref_positions(expected_rankings)
    assert got.ballots.rankings == fresh.ballots.rankings
    for name in ("index", "counts", "places"):
        assert np.array_equal(getattr(got.ballots, name), getattr(fresh.ballots, name))
    assert_record_consistent(got)


def check_tallies(profile, rankings):
    assert _advantages(profile) == ref_advantages(rankings)
    m = len(rankings[0])
    assert [bucklin_psi(profile, c) for c in range(1, m + 1)] == [
        ref_bucklin_psi(rankings, c) for c in range(1, m + 1)
    ]
    assert plurality_winner(profile).tally == ref_plurality(rankings)


@pytest.mark.parametrize("seed", range(40))
def test_profiles_match_the_per_voter_code(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 12)
    rankings = random_rankings(rng, m, n, rng.randint(1, 4))
    if seed % 3 == 2:
        rankings = spoiled(rng, rankings)
    profile = check_profile(rankings)
    if profile is None:
        return
    check_tallies(profile, rankings)
    election = Election(tuple(f"c{c}" for c in range(1, m + 1)), range(1, n + 1), profile)
    t = rng.randint(1, m)
    swapped = normalize_target(election, ControlSpec("maximin", "delete-voters", "constructive", t))
    check_derived(swapped[0].preferences, ref_normalize(rankings, t))
    keep = rng.sample(range(1, n + 1), rng.randint(1, n))
    voters = restrict_to_voters(election, keep).preferences
    check_derived(voters, ref_restrict_voters(rankings, keep))
    check_tallies(voters, ref_restrict_voters(rankings, keep))
    keep = rng.sample(range(1, m + 1), rng.randint(1, m))
    candidates = restrict_to_candidates(election, keep).preferences
    check_derived(candidates, ref_restrict_candidates(rankings, keep))
    check_tallies(candidates, ref_restrict_candidates(rankings, keep))


def random_groups(rng, m):
    order = rng.sample(range(1, m + 1), m)
    groups, start = [], 0
    while start < m:
        size = rng.randint(1, m - start)
        groups.append(tuple(order[start : start + size]))
        start += size
    return tuple(groups)


@pytest.mark.parametrize("seed", range(30))
def test_tied_profiles_match_the_per_voter_code(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 10)
    voters = list(mixed_voters(rng, [random_groups(rng, m) for _ in range(3)], n))
    if seed % 3 == 2:
        j = rng.randrange(n)
        bad = [list(g) for g in voters[j]]
        kind = rng.randrange(3)
        if kind == 0:
            bad.append([])
        elif kind == 1:
            bad[0].append(m + 1)
        else:
            bad[0][0] = float(bad[0][0])
        voters[j] = tuple(map(tuple, bad))
    groups = tuple(voters)
    got = outcome(TiedProfile, groups)
    expected = outcome(ref_check_tied, groups)
    if expected is not None:
        assert got == expected
        return
    assert got.groups is groups
    assert tied_to_scores(got, m).scores == ref_tied_to_scores(groups, m)


def test_tied_profiles_keep_taking_lists():
    groups = [[[2], [1, 3]], [[2], [1, 3]], [[1, 2, 3]]]
    assert tied_to_scores(TiedProfile(groups), 3).scores == ref_tied_to_scores(groups, 3)
    with pytest.raises(ValueError, match="voter 2 has an empty tie group"):
        TiedProfile([[[1], [2]], [[1, 2], []]])


def document(lines, m=3):
    alternatives = tuple((c, f"c{c}") for c in range(1, m + 1))
    return PrefLibDocument((), alternatives, tuple(lines))


def test_a_float_ballot_behind_an_equal_integer_ballot_is_rejected_everywhere():
    ints, floats = (1, 2, 3), (1.0, 2.0, 3.0)
    assert ints == floats
    for rankings in ((ints, floats), (floats, ints), (ints, ints, floats)):
        with pytest.raises(ValueError, match="candidate labels must be integers"):
            StrictProfile(rankings)
        with pytest.raises(ValueError, match="candidate labels must be integers"):
            Election.from_rankings(rankings)
        as_groups = tuple(tuple((c,) for c in r) for r in rankings)
        with pytest.raises(ValueError, match="candidate labels must be integers"):
            TiedProfile(as_groups)
        doc = document([(2, groups) for groups in as_groups])
        with pytest.raises(ValueError, match="candidate labels must be integers"):
            expand_voters(doc)
        with pytest.raises(ValueError, match="candidate labels must be integers"):
            expand_scores(doc)


@pytest.mark.parametrize(
    "lines,message",
    [
        ([(2, ((1,), (2,), (3,))), (3, ((1,), (1,), (3,)))], "ranking of voter 3 is not"),
        ([(1, ((1,), (2,), (3,))), (2, ((3,), (2,), (2,))), (1, ((3,), (2,), (2,)))], "ranking of voter 2 is not"),
        ([(2, ((2,), (1,), (3,))), (0, ((4,), (1,), (3,)))], None),
        ([], "profile needs at least one voter"),
    ],
)
def test_expand_voters_reports_what_the_expanded_profile_reports(lines, message):
    doc = document(lines)
    expanded = tuple(tuple(g[0] for g in order) for mult, order in lines for _ in range(mult))
    got = outcome(expand_voters, doc)
    assert outcome(ref_check_strict, expanded) == (None if message is None else got)
    if message is None:
        check_derived(got.preferences, expanded)
    else:
        assert got[1].startswith(message)


SPECS = [
    ("range", "delete-voters"),
    ("condorcet", "delete-voters"),
    ("plurality", "delete-candidates"),
    ("maximin", "delete-voters"),
    ("bucklin", "delete-voters"),
    ("bucklin", "delete-candidates"),
]


@pytest.mark.parametrize("rule,action", SPECS)
def test_exports_match_for_profiles_built_both_ways(rule, action):
    """The expanded file (one shared ballot per order line, through the
    private constructor) and the same voters as fresh tuples checked one by
    one encode to the same LP and MPS text."""
    rng = random.Random(f"{rule}:{action}")
    m = 4
    lines = [(rng.randint(1, 3), tuple((c,) for c in rng.sample(range(1, m + 1), m))) for _ in range(3)]
    doc = document(lines, m)
    expanded = tuple(tuple(g[0] for g in order) for mult, order in lines for _ in range(mult))
    names = tuple(name for _, name in doc.alternatives)
    voters = range(1, len(expanded) + 1)
    if rule == "range":
        by_record = expand_scores(doc)
        groups = tuple(tuple((c,) for c in r) for r in expanded)
        by_voter = Election.from_scores(ref_tied_to_scores(groups, m))
        assert by_record.preferences == by_voter.preferences
    else:
        by_record = expand_voters(doc)
        by_voter = Election(names, voters, StrictProfile(tuple(map(tuple, map(list, expanded)))))
    for mode in ("constructive", "destructive"):
        spec = ControlSpec(rule, action, mode, 3)
        models = [encode_control(*normalize_target(e, spec)).model for e in (by_record, by_voter)]
        assert export_lp(models[0]) == export_lp(models[1])
        assert export_mps(models[0]) == export_mps(models[1])
