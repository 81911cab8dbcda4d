"""Domain types for elections, preference profiles, and control problems.

Candidates and voters are identified positionally with 1-based indices:
an election holds its candidates' display names, in index order, and its
voters as the range 1..n. All types are immutable after construction and
every operation is a pure function, so values can be shared freely across
threads. The one cached value, `StrictProfile.positions`, is a
deterministic function of the rankings: two threads that both compute it
store equal tables, so sharing a profile stays safe.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from numbers import Integral
from typing import Iterable, Union

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


@dataclass(frozen=True)
class StrictProfile:
    """One complete strict ranking per voter, most preferred first."""

    rankings: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rankings:
            raise ValueError("profile needs at least one voter")
        if not self.rankings[0]:
            raise ValueError("profile needs at least one candidate")
        # The labels' types are checked on every ballot: (1, 2, 3) and
        # (1.0, 2.0, 3.0) are equal, so one could hide behind the other.
        # The permutation check depends on values only and runs once per
        # distinct ballot, in the order of their first voters.
        if not _integral(self.rankings):
            raise ValueError("candidate labels must be integers")
        m = len(self.rankings[0])
        expected = set(range(1, m + 1))
        for ranking in dict.fromkeys(self.rankings):
            if set(ranking) != expected or len(ranking) != m:
                v = self.rankings.index(ranking) + 1
                raise ValueError(f"ranking of voter {v} is not a permutation of 1..{m}")

    @cached_property
    def positions(self) -> tuple[tuple[int, ...], ...]:
        """Per voter the 0-based place of each candidate on the ballot:
        `positions[j][c - 1]` is where voter j + 1 ranks candidate c. Equal
        ballots share one row."""
        labels = range(1, self.m + 1)
        rows = {r: tuple(map(r.index, labels)) for r in set(self.rankings)}
        return tuple(map(rows.__getitem__, self.rankings))

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

    def __post_init__(self):
        if not self.groups:
            raise ValueError("profile needs at least one voter")
        if not _integral(group for voter_groups in self.groups for group in voter_groups):
            raise ValueError("candidate labels must be integers")
        m = sum(len(g) for g in self.groups[0])
        expected = set(range(1, m + 1))
        for v, voter_groups in enumerate(self.groups, start=1):
            seen = [c for group in voter_groups for c in group]
            if not voter_groups or any(not group for group in voter_groups):
                raise ValueError(f"voter {v} has an empty tie group")
            if set(seen) != expected or len(seen) != m:
                raise ValueError(f"tie groups of voter {v} do not partition 1..{m}")

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
        swapped = {r: tuple(swap_index(c, 1, t) for c in r) for r in set(prefs.rankings)}
        new_prefs: Preferences = StrictProfile(tuple(map(swapped.__getitem__, prefs.rankings)))
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
        new_prefs: Preferences = StrictProfile(tuple(prefs.rankings[j] for j in pick))
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
        relabeled = {
            r: tuple(relabel[c] for c in r if c in relabel) for r in set(prefs.rankings)
        }
        new_prefs: Preferences = StrictProfile(tuple(map(relabeled.__getitem__, prefs.rankings)))
    else:
        new_prefs = ScoreMatrix(tuple(prefs.scores[c - 1] for c in kept))
    return Election(tuple(election.candidates[c - 1] for c in kept), election.voters, new_prefs)
