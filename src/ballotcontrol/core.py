"""Domain types for elections, preference profiles, and control problems.

Candidates and voters are identified positionally with 1-based indices:
an election holds its candidates' display names, in index order, and its
voters as the range 1..n. All types are immutable after construction and
every operation is a pure function, so values can be shared freely across
threads.

A strict profile keeps one record of its distinct ballots
(`BallotRecord`), built with its checks in `__post_init__`, so nothing is
computed lazily and no cache needs a lock: the per-ballot work (checks,
candidate places, relabeling, restriction and the rules' tallies) runs
once per distinct ballot, and per voter only an index into the record is
kept. A tied profile keeps its distinct tie-group tuples the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Iterable, Union

import numpy as np

RULES = ("range", "condorcet", "plurality", "maximin", "bucklin")
ACTIONS = ("delete-voters", "delete-candidates")
MODES = ("constructive", "destructive")

#: (rule, action) pairs that have a control encoder.
SUPPORTED_CONTROL_PAIRS = frozenset(
    {
        ("range", "delete-voters"),
        ("condorcet", "delete-voters"),
        ("plurality", "delete-candidates"),
        ("maximin", "delete-voters"),
        ("bucklin", "delete-voters"),
        ("bucklin", "delete-candidates"),
    }
)


def _integral(rows) -> bool:
    """Whether every entry of every row is an integer, numpy's included. A
    float label would pass the permutation checks ({1.0, 2} == {1, 2})."""
    return all(issubclass(t, Integral) for t in {type(x) for row in rows for x in row})


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _by_identity(ballots) -> tuple[list, np.ndarray]:
    """`ballots`' distinct objects, told apart by identity, in order of
    first voter, and each voter's index into them as an `np.intp` array.
    Nothing is hashed but the objects' ids."""
    first = dict(zip(map(id, ballots), ballots))
    number = dict(zip(first, range(len(first))))
    index = np.fromiter(map(number.__getitem__, map(id, ballots)), np.intp, len(ballots))
    return list(first.values()), index


def _by_value(ballots, index) -> tuple[list, np.ndarray]:
    """Merge equal `ballots`, distinct objects in order of first voter
    (hashing each once): their distinct values, each kept as its first
    object, and `index` mapped onto them. The order of first voter holds."""
    values: dict = {}
    merged = [values.setdefault(b, len(values)) for b in ballots]
    if len(values) < len(ballots):
        index = np.array(merged, dtype=np.intp)[index]
    return list(values), index


def _check_rankings(ballots, index) -> None:
    """Raise what `StrictProfile` raises for the voters casting
    `ballots[index[j]]`, the ballots distinct objects in order of first
    voter. The labels' types are checked once per object: (1, 2, 3) and
    (1.0, 2.0, 3.0) are equal, so one could hide behind the other. The
    permutation check depends on values only and runs once per distinct
    value, in the order of their first voters."""
    if not index.size:
        raise ValueError("profile needs at least one voter")
    if not ballots[index[0]]:
        raise ValueError("profile needs at least one candidate")
    if not _integral(ballots):
        raise ValueError("candidate labels must be integers")
    m = len(ballots[index[0]])
    expected = set(range(1, m + 1))
    for ranking in dict.fromkeys(ballots):
        if set(ranking) != expected or len(ranking) != m:
            v = int(np.flatnonzero(index == ballots.index(ranking))[0]) + 1
            raise ValueError(f"ranking of voter {v} is not a permutation of 1..{m}")


@dataclass(frozen=True, eq=False)
class BallotRecord:
    """A strict profile's distinct ballots: `rankings` holds them in order
    of first voter, voter j + 1 casts `rankings[index[j]]`, `counts[b]`
    voters cast ballot b, and `places[b, c - 1]` is the 0-based place of
    candidate c on ballot b. The arrays are `np.intp` and read-only."""

    rankings: tuple[tuple[int, ...], ...]
    index: np.ndarray
    counts: np.ndarray
    places: np.ndarray

    @classmethod
    def of(cls, ballots, index) -> "BallotRecord":
        """The record of the voters casting `ballots[index[j]]`, ballots
        checked as `StrictProfile` checks them, in order of first voter and
        each cast by some voter; equal ones are merged."""
        rankings, index = _by_value(ballots, index)
        counts = np.bincount(index, minlength=len(rankings))
        places = np.array(rankings, dtype=np.intp).argsort(axis=1)
        return cls(tuple(rankings), *map(_frozen, (index, counts, places)))

    def voter_places(self) -> np.ndarray:
        """The n x m table of each voter's places, one gather of `places`."""
        return self.places[self.index]


@dataclass(frozen=True)
class StrictProfile:
    """One complete strict ranking per voter, most preferred first.

    Construction checks the rankings and builds `ballots`, the record of
    the distinct ballots every per-ballot computation reads. `==` and
    `hash` compare `rankings` only."""

    rankings: tuple[tuple[int, ...], ...]
    ballots: BallotRecord = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.rankings:
            raise ValueError("profile needs at least one voter")
        ballots, index = _by_identity(self.rankings)
        _check_rankings(ballots, index)
        object.__setattr__(self, "ballots", BallotRecord.of(ballots, index))

    @classmethod
    def _of_ballots(cls, ballots, index) -> "StrictProfile":
        """The profile whose voter j + 1 casts `ballots[index[j]]`, for
        ballots already checked as a profile's, in order of first voter and
        each cast by some voter: no check runs again, and `rankings` holds
        shared references to the record's ballots."""
        profile = object.__new__(cls)
        record = BallotRecord.of(ballots, index)
        # Gathered as objects: the tuples themselves, not copies.
        shared = np.empty(len(record.rankings), dtype=object)
        for b, ranking in enumerate(record.rankings):
            shared[b] = ranking
        object.__setattr__(profile, "rankings", tuple(shared[record.index].tolist()))
        object.__setattr__(profile, "ballots", record)
        return profile

    @property
    def positions(self) -> tuple[tuple[int, ...], ...]:
        """Per voter the 0-based place of each candidate on the ballot:
        `positions[j][c - 1]` is where voter j + 1 ranks candidate c. A view
        of the record, built on each read; equal ballots share one row."""
        rows = tuple(map(tuple, self.ballots.places.tolist()))
        return tuple(map(rows.__getitem__, self.ballots.index.tolist()))

    @property
    def m(self) -> int:
        return len(self.rankings[0])

    @property
    def n(self) -> int:
        return len(self.rankings)


@dataclass(frozen=True)
class TiedProfile:
    """Per voter an ordered tuple of disjoint tie groups covering all candidates.

    Elections never hold one: a file with ties is read as scores
    (`preflib.expand_scores`, through `preflib.tied_to_scores`).
    """

    groups: tuple[tuple[tuple[int, ...], ...], ...]
    #: The distinct per-voter tie-group tuples, in order of first voter;
    #: voter j + 1 holds `ballots[index[j]]`.
    ballots: tuple = field(init=False, repr=False, compare=False)
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.groups:
            raise ValueError("profile needs at least one voter")
        # Types are checked once per object and partitions once per value,
        # as for `StrictProfile`; unhashable groups (lists) stay told apart
        # by identity.
        ballots, index = _by_identity(self.groups)
        if not _integral(group for voter_groups in ballots for group in voter_groups):
            raise ValueError("candidate labels must be integers")
        try:
            ballots, index = _by_value(ballots, index)
        except TypeError:
            pass
        m = sum(len(g) for g in self.groups[0])
        expected = set(range(1, m + 1))
        for b, voter_groups in enumerate(ballots):
            seen = [c for group in voter_groups for c in group]
            bad = not voter_groups or any(not group for group in voter_groups)
            if bad or set(seen) != expected or len(seen) != m:
                v = int(np.flatnonzero(index == b)[0]) + 1
                if bad:
                    raise ValueError(f"voter {v} has an empty tie group")
                raise ValueError(f"tie groups of voter {v} do not partition 1..{m}")
        object.__setattr__(self, "ballots", tuple(ballots))
        object.__setattr__(self, "index", _frozen(index))

    @property
    def m(self) -> int:
        return sum(len(g) for g in self.groups[0])

    @property
    def n(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class ScoreMatrix:
    """m x n matrix of non-negative integer scores; entry (i, j) is the number
    of points voter j gives candidate i."""

    scores: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.scores or not self.scores[0]:
            raise ValueError("score matrix must be non-empty")
        if not _integral(self.scores):
            raise ValueError("scores must be integers")
        n = len(self.scores[0])
        for row in self.scores:
            if len(row) != n:
                raise ValueError("score matrix rows have unequal lengths")
            if min(row) < 0:
                raise ValueError("scores must be non-negative")

    @property
    def m(self) -> int:
        return len(self.scores)

    @property
    def n(self) -> int:
        return len(self.scores[0])


Preferences = Union[StrictProfile, ScoreMatrix]


@dataclass(frozen=True)
class Election:
    """Plain data: `candidates` is the tuple of candidate names, candidate i
    named `candidates[i - 1]`; `voters` is `range(1, n + 1)`; `preferences`
    is exactly one payload, strict rankings or scores, over those m
    candidates and n voters."""

    candidates: tuple[str, ...]
    voters: range
    preferences: Preferences

    def __post_init__(self):
        m, n = len(self.candidates), len(self.voters)
        if m < 1 or n < 1:
            raise ValueError("an election needs at least one candidate and one voter")
        if self.voters != range(1, n + 1):
            raise ValueError(f"voters must be range(1, {n + 1}), got {self.voters!r}")
        if not isinstance(self.preferences, (StrictProfile, ScoreMatrix)):
            raise TypeError(
                "preferences must be a StrictProfile or a ScoreMatrix, "
                f"got {type(self.preferences).__name__}"
            )
        if self.preferences.m != m or self.preferences.n != n:
            raise ValueError(
                f"preference payload is {self.preferences.m}x{self.preferences.n}, "
                f"election is {m} candidates x {n} voters"
            )

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def n(self) -> int:
        return len(self.voters)

    def candidate_name(self, index: int) -> str:
        if not 1 <= index <= self.m:
            raise ValueError(f"candidate {index} out of range 1..{self.m}")
        return self.candidates[index - 1]

    @classmethod
    def from_rankings(cls, rankings) -> "Election":
        """Candidates named c1..cm."""
        profile = StrictProfile(tuple(tuple(r) for r in rankings))
        names = tuple(f"c{i}" for i in range(1, profile.m + 1))
        return cls(names, range(1, profile.n + 1), profile)

    @classmethod
    def from_scores(cls, scores) -> "Election":
        """Candidates named c1..cm."""
        matrix = ScoreMatrix(tuple(tuple(row) for row in scores))
        names = tuple(f"c{i}" for i in range(1, matrix.m + 1))
        return cls(names, range(1, matrix.n + 1), matrix)


@dataclass(frozen=True)
class ControlSpec:
    """What the chair wants: rule, deletion target kind, mode, and the
    distinguished candidate."""

    rule: str
    action: str
    mode: str
    target: int

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if (self.rule, self.action) not in SUPPORTED_CONTROL_PAIRS:
            raise ValueError(f"unsupported control pair ({self.rule}, {self.action})")
        if self.target < 1:
            raise ValueError("target must be a positive candidate index")


def swap_index(i: int, a: int, b: int) -> int:
    """Apply the transposition (a b) to index i."""
    if i == a:
        return b
    if i == b:
        return a
    return i


def normalize_target(election: Election, spec: ControlSpec) -> tuple[Election, ControlSpec]:
    """Relabel candidates by the transposition (1 target) so the distinguished
    candidate has index 1. Applying the same swap again restores the original,
    so callers can map reported indices back with `swap_index`."""
    t = spec.target
    if t > election.m:
        raise ValueError(f"target {t} is not a candidate index (m={election.m})")
    if t == 1:
        return election, spec
    names = list(election.candidates)
    names[0], names[t - 1] = names[t - 1], names[0]
    prefs = election.preferences
    if isinstance(prefs, StrictProfile):
        record = prefs.ballots
        swapped = [tuple(swap_index(c, 1, t) for c in r) for r in record.rankings]
        new_prefs: Preferences = StrictProfile._of_ballots(swapped, record.index)
    else:
        rows = list(prefs.scores)
        rows[0], rows[t - 1] = rows[t - 1], rows[0]
        new_prefs = ScoreMatrix(tuple(rows))
    return Election(tuple(names), election.voters, new_prefs), replace(spec, target=1)


def restrict_to_voters(election: Election, keep: Iterable[int]) -> Election:
    """Election over the kept voters only; the candidate set is unchanged."""
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("cannot restrict to an empty voter set")
    if kept[0] < 1 or kept[-1] > election.n:
        raise ValueError("keep set contains unknown voter indices")
    pick = [j - 1 for j in kept]
    prefs = election.preferences
    if isinstance(prefs, StrictProfile):
        record = prefs.ballots
        picked = record.index[np.array(pick, dtype=np.intp)]
        # The kept ballots, in order of their first kept voter; a ballot no
        # kept voter casts has first == n and sorts last.
        n = picked.size
        first = np.full(len(record.rankings), n, dtype=np.intp)
        np.minimum.at(first, picked, np.arange(n))
        order = first.argsort(kind="stable")
        kept_ballots = [record.rankings[b] for b in order[: np.count_nonzero(first < n)].tolist()]
        new_prefs: Preferences = StrictProfile._of_ballots(kept_ballots, order.argsort()[picked])
    else:
        new_prefs = ScoreMatrix(tuple(tuple(row[j] for j in pick) for row in prefs.scores))
    return Election(election.candidates, range(1, len(kept) + 1), new_prefs)


def restrict_to_candidates(election: Election, keep: Iterable[int]) -> Election:
    """Election over the kept candidates; rankings keep their relative order
    and the kept candidates are relabeled 1..m' in ascending original index."""
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("cannot restrict to an empty candidate set")
    if kept[0] < 1 or kept[-1] > election.m:
        raise ValueError("keep set contains unknown candidate indices")
    relabel = {orig: new for new, orig in enumerate(kept, start=1)}
    prefs = election.preferences
    if isinstance(prefs, StrictProfile):
        record = prefs.ballots
        relabeled = [tuple(relabel[c] for c in r if c in relabel) for r in record.rankings]
        new_prefs: Preferences = StrictProfile._of_ballots(relabeled, record.index)
    else:
        new_prefs = ScoreMatrix(tuple(prefs.scores[c - 1] for c in kept))
    return Election(tuple(election.candidates[c - 1] for c in kept), election.voters, new_prefs)
