"""Integer programs for the six supported control problems.

Each encoder builds a program whose binary decision vector x selects the
voters (or candidates) allowed to stay; the objective maximizes how many
stay. An encoder takes the control mode and builds that mode's program in
one pass: first the rows both modes share, then either the win rows, which
force the distinguished candidate (always index 1 here, see
`normalize_target`) to be the unique winner of the restricted election, or,
in destructive mode, a big-M alternative block
(`add_alternative_block`) of their negations, so the target must instead
fail to win. With a single candidate the target wins vacuously: the
constructive program has no win rows and keeps everyone, the destructive
one gets an unsatisfiable "dest:impossible" row. Infeasibility of a program
means the chair's goal is unreachable.

Each variable family (the x, and each family of y or z) is declared as
one block (`LinearProgram.add_variables`). Rows reach the program in two
forms: `(name, coef)` term tuples, which an alternative block also takes
(each alternative a list of `(terms, rhs, tag)` rows read as `terms <=
rhs`), and blocks of CSR arrays over column indices
(`LinearProgram.add_rows`). The families with a term per voter are built
as arrays from the voters' places, one gather of the ballot record's
place table (`BallotRecord.voter_places`), or from the score table
(the win rows of RE, CE and PE, MME's rival-cap and target-floor rows,
BEV's score rows) and so are the 2·n·m² Bucklin points rows
(`_bucklin_points_rows`); every term is in the order a term-by-term
build would give it.

Constraint tags name the model and the family a row belongs to (e.g.
"pe:win:c3", "dest:alt:c3"); the test-suite locates rows through them.

Auxiliary variable meanings:

* PE: z_{i}_{j} = 1 iff candidate i is voter j's favourite among the kept
  candidates.
* MME: z_{i}_{k} = 1 marks an advantage of rival i that stays below the
  integer threshold b, and b is a lower bound on the target's minimum
  advantage. Destructively, b is an upper bound on the target's minimum
  advantage (u_{k} picks the advantage) and a lower bound on some rival's
  (w_{i} picks the rival).
* BEV: z_{i}_{k} = 1 iff a strict majority of the kept voters ranks
  candidate i within the top k.
* BEC: y_{j}_{i}_{l} = 1 iff voter j ranks kept candidate i among the top
  l of the kept candidates; z_{i}_{l} aggregates the majority threshold.
* Destructive indicators: y_{i} (RE, CE, PE) and d_{i}_{l} (BEV, BEC) pick
  the rival the target fails against; d_0 (BEV) picks "the target reaches
  no majority at all".

Every feasible candidate-deletion assignment keeps the target (x_1 = 1 is
a structural row; it also encodes that the target cannot be deleted in
destructive mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Optional

import numpy as np

from .core import MODES, Election, ControlSpec, ScoreMatrix, StrictProfile, swap_index
from .ilp import Assignment, BINARY, INTEGER, LinearProgram, add_alternative_block
from .rules import rule_payload, winner_after_deletion


class VerificationError(RuntimeError):
    """A decoded solution failed the winner recheck: encoder or solver bug."""


@dataclass(frozen=True)
class EncodedProblem:
    """A control program and its decision variables.

    `decision_vars` lists the x-variables in voter/candidate order; `decode`
    reads the kept set off them.
    """

    model: LinearProgram
    decision_vars: tuple[str, ...]


@dataclass(frozen=True)
class ControlSolution:
    """Kept/deleted sets with the winner recheck on the restricted election."""

    kept: tuple[int, ...]
    deleted: tuple[int, ...]
    objective: Optional[int]
    status: str
    verification: Optional[Mapping] = None


def dominance_row_matrix(profile: StrictProfile):
    """The paper's (m-1) x n matrix; row i, column j is 1 iff the target
    (candidate 1) is preferred to candidate i+1 by voter j. A reference for
    acceptance criteria 3 and 6 only; the solve path never builds it."""
    if profile.m < 2:
        raise ValueError("dominance rows need at least two candidates")
    positions = profile.positions
    return tuple(tuple(int(p[0] < p[i]) for p in positions) for i in range(1, profile.m))


def dominance_cube(profile: StrictProfile):
    """The paper's per-voter m x m strict-order matrices: entry (i, k) is 1
    iff the voter prefers candidate i to candidate k. A reference for
    acceptance criteria 3 and 6 only; the solve path never builds it."""
    cs = range(profile.m)
    return tuple(tuple(tuple(int(p[i] < p[k]) for k in cs) for i in cs) for p in profile.positions)


def bucklin_position_cube(profile: StrictProfile):
    """The paper's per-voter m x m step matrices: entry (i, k) is 1 iff the
    voter ranks candidate i at position k or better. A reference for
    acceptance criteria 3 and 6 only; the solve path never builds it."""
    cs = range(profile.m)
    return tuple(tuple(tuple(int(p[i] <= k) for k in cs) for i in cs) for p in profile.positions)


def _ranked_above(xs, place, i):
    """Keep terms, in index order, of the candidates above candidate i on a
    ballot whose places are `place`."""
    return tuple((x, 1) for x, q in zip(xs, place) if q < place[i - 1])


def _is_destructive(mode: str) -> bool:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return mode == "destructive"


def _decision_vars(model: LinearProgram, count: int) -> tuple[str, ...]:
    """The keep binaries x_1..x_count (voters or candidates), the model's
    first columns, and the objective that keeps as many as possible."""
    names = tuple(f"x_{k}" for k in range(1, count + 1))
    model.add_variables(names, BINARY)
    model.set_objective("max", zip(names, [1] * count))
    return names


def _binaries(model: LinearProgram, prefix: str, keys) -> dict:
    """Declare one binary per key as one block, named by the prefix and
    the key's parts joined by `_` (key (2, 3) gives `{prefix}_2_3`), and
    map each key to its name."""
    keys = list(keys)
    names = ["_".join((prefix, *map(str, key))) for key in keys]
    model.add_variables(names, BINARY)
    return dict(zip(keys, names))


def _array_rows(model, cols, coefs, senses, rhs, tags, keep=True) -> None:
    """Add one row per line of the 2-D arrays `cols` (column indices) and
    `coefs`, of the terms where `keep` holds, in line order, as one
    `add_rows` block. `keep`, and either array, may be anything that
    broadcasts to the others' shape."""
    cols, coefs, keep = np.broadcast_arrays(cols, coefs, keep)
    indptr = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    model.add_rows(indptr, cols[keep], coefs[keep], senses, rhs, tags)


def _impossible(model: LinearProgram, xs) -> None:
    # With one candidate the target wins vacuously under every restriction,
    # so the destructive problem has no solution at all.
    model.add_constraint(tuple((x, 1) for x in xs), "<=", -1, tag="dest:impossible")


def _duel_rows(model, xs, family, names, cols, balance, destructive, big_m=None) -> None:
    """Rows for per-rival balances the target wins when positive: line r
    of the 2-D arrays `cols` (column indices, which also index the name
    sequence `names`) and `balance` (their coefficients) is the balance
    against rival r + 2.

    Constructive: every balance is at least 1 ("{family}:win:c{i}"), as
    one `add_rows` block. Destructive: at least one balance is at most 0,
    through an alternative block with indicator y_{i} per rival i.
    """
    rivals = range(2, len(balance) + 2)
    if not destructive:
        tags = [f"{family}:win:c{i}" for i in rivals]
        _array_rows(model, cols, balance, [">="] * len(tags), [1] * len(tags), tags)
    elif len(balance):
        cols = np.broadcast_to(cols, balance.shape).tolist()
        add_alternative_block(
            model,
            [
                [(tuple(zip(map(names.__getitem__, c), b)), 0, f"dest:alt:c{i}")]
                for i, c, b in zip(rivals, cols, balance.tolist())
            ],
            big_m=big_m,
            names=[f"y_{i}" for i in rivals],
            pick_tag="dest:pick",
        )
    else:
        _impossible(model, xs)


def encode_re(scores: ScoreMatrix, mode: str = "constructive") -> EncodedProblem:
    """Range control by deleting voters: keep a maximum voter set for which
    the target's total strictly beats every rival's total (constructive) or
    fails to beat some rival's total (destructive)."""
    destructive = _is_destructive(mode)
    n = scores.n
    model = LinearProgram("range-control")
    xs = _decision_vars(model, n)
    try:
        table = np.array(scores.scores, dtype=np.int64)
    except OverflowError:
        table = np.array(scores.scores, dtype=object)
    big_m = n * max(max(row) for row in scores.scores)
    _duel_rows(model, xs, "re", xs, np.arange(n), table[0] - table[1:], destructive, big_m)
    return EncodedProblem(model, xs)


def encode_ce(profile: StrictProfile, mode: str = "constructive") -> EncodedProblem:
    """Condorcet control by deleting voters: every kept-voter pairwise duel
    of the target against a rival must be won strictly (constructive), or
    some duel must not be (destructive); the +-1 rows express a win as a
    positive balance."""
    destructive = _is_destructive(mode)
    model = LinearProgram("condorcet-control")
    xs = _decision_vars(model, profile.n)
    place = profile.ballots.voter_places().T
    balance = np.where(place[0] < place[1:], 1, -1)
    _duel_rows(model, xs, "ce", xs, np.arange(profile.n), balance, destructive)
    return EncodedProblem(model, xs)


def encode_pe(profile: StrictProfile, mode: str = "constructive") -> EncodedProblem:
    """Plurality control by deleting candidates.

    z_{i}_{j} may be 1 only when no kept candidate beats i for voter j, is
    forced to 1 when kept candidate i is voter j's top choice, and cannot
    be claimed by deleted rivals; the win rows then demand strictly more
    top votes for the target than for any rival, and the destructive block
    demands at most as many as some rival.
    """
    destructive = _is_destructive(mode)
    m, n = profile.m, profile.n
    model = LinearProgram("plurality-control")
    xs = _decision_vars(model, m)
    z = _binaries(model, "z", product(range(1, m + 1), range(1, n + 1)))
    model.add_constraint(((xs[0], 1),), "=", 1, tag="pe:target-kept")
    positions = profile.positions
    for i in range(1, m + 1):
        for j, place in enumerate(positions, start=1):
            better = _ranked_above(xs, place, i)
            model.add_constraint(
                better + ((z[i, j], m),), "<=", m, tag=f"pe:top-blocked:c{i}:v{j}"
            )
            model.add_constraint(
                better + ((z[i, j], 1), (xs[i - 1], -1)),
                ">=",
                0,
                tag=f"pe:top-forced:c{i}:v{j}",
            )
    for i in range(2, m + 1):
        terms = tuple((z[i, j], 1) for j in range(1, n + 1)) + ((xs[i - 1], -n),)
        model.add_constraint(terms, "<=", 0, tag=f"pe:deleted-no-top:c{i}")
    # z_{i}_{j} is column m + (i - 1)·n + j - 1; each duel row holds the
    # target's z, then the rival's.
    zcols = np.arange(m, m + m * n).reshape(m, n)
    cols = np.hstack([np.tile(zcols[0], (m - 1, 1)), zcols[1:]])
    balance = np.tile(np.repeat([1, -1], n), (m - 1, 1))
    _duel_rows(model, xs, "pe", xs + tuple(z.values()), cols, balance, destructive)
    return EncodedProblem(model, xs)


def encode_mme(profile: StrictProfile, mode: str = "constructive") -> EncodedProblem:
    """Maximin control by deleting voters.

    Constructive: the integer threshold b sits between every rival's
    smallest advantage (strictly above, via the z rows) and the target's
    smallest advantage (at most, via the floor rows), so feasibility means
    the target's minimum advantage is the strict maximum. Destructive: b is
    at least one of the target's advantages and at most every advantage of
    some rival, so a rival's minimum advantage reaches the target's.
    """
    destructive = _is_destructive(mode)
    m, n = profile.m, profile.n
    name = "maximin-control-destructive" if destructive else "maximin-control"
    model = LinearProgram(name)
    xs = _decision_vars(model, n)
    b = model.add_variable("b", INTEGER, 0 if destructive else 1, n)
    place = profile.ballots.voter_places().T

    def backers(i, k, coef):
        # The kept voters preferring candidate i to candidate k.
        voters = np.flatnonzero(place[i - 1] < place[k - 1]).tolist()
        return tuple((xs[j], coef) for j in voters)

    if destructive and m == 1:
        _impossible(model, xs)
    elif destructive:
        # b >= the target's minimum advantage: some advantage of the target
        # is at most b.
        target_min = [
            [(backers(1, k, 1) + ((b, -1),), 0, f"dest:target-min:c{k}")] for k in range(2, m + 1)
        ]
        add_alternative_block(
            model,
            target_min,
            names=[f"u_{k}" for k in range(2, m + 1)],
            pick_tag="dest:pick-target-min",
        )
        # Some rival's minimum advantage reaches b: all of its advantages do.
        rival_min = [
            [
                (((b, 1),) + backers(i, k, -1), 0, f"dest:rival-min:c{i}:c{k}")
                for k in range(1, m + 1)
                if k != i
            ]
            for i in range(2, m + 1)
        ]
        add_alternative_block(
            model,
            rival_min,
            names=[f"w_{i}" for i in range(2, m + 1)],
            pick_tag="dest:pick-rival",
        )
    else:
        pairs = [(i, k) for i in range(2, m + 1) for k in range(1, m + 1) if k != i]
        z = _binaries(model, "z", pairs)
        # The columns: x_1..x_n are 0..n - 1, b is n, and the z follow.
        rival, other = np.array(pairs, dtype=np.intp).reshape(-1, 2).T - 1
        # Per pair (i, k) a row of its supporters (the voters preferring i
        # to k), z_{i}_{k} and b. The relaxation constant only has to cover
        # the advantage this row can reach, which is the number of
        # supporting voters.
        supporters = place[rival] < place[other]
        cap = np.maximum(supporters.sum(axis=1), 1)
        z_cols = n + 1 + np.arange(len(pairs))
        _array_rows(
            model,
            np.column_stack([np.tile(np.arange(n), (len(pairs), 1)), z_cols, np.full_like(cap, n)]),
            np.column_stack([np.ones_like(supporters, dtype=np.int64), cap, -np.ones_like(cap)]),
            ["<="] * len(pairs),
            cap - 1,
            [f"mme:rival-cap:c{i}:c{k}" for i, k in pairs],
            keep=np.pad(supporters, ((0, 0), (0, 2)), constant_values=True),
        )
        for i in range(2, m + 1):
            model.add_constraint(
                tuple((z[i, k], 1) for k in range(1, m + 1) if k != i),
                ">=",
                1,
                tag=f"mme:rival-some:c{i}",
            )
        # Per rival k a row of b and the voters preferring the target to k.
        _array_rows(
            model,
            np.concatenate([[n], np.arange(n)]),
            np.array([1] + [-1] * n),
            ["<="] * (m - 1),
            [0] * (m - 1),
            [f"mme:target-floor:c{k}" for k in range(2, m + 1)],
            keep=np.pad(place[0] < place[1:], ((0, 0), (1, 0)), constant_values=True),
        )
    return EncodedProblem(model, xs)


def _bucklin_win_rows(model, z, m, family, level) -> None:
    """The target picks at least one achieved score, and the picked score
    stays strictly below every rival's achieved scores."""
    # Valid big-M for "target's claimed score + 1 <= rival's score": the
    # claimed-score sum is at most 1 + 2 + ... + m.
    cap = m * (m + 1) // 2 + 1
    for i in range(2, m + 1):
        for l in range(1, m + 1):
            terms = tuple((z[1, q], q) for q in range(1, m + 1)) + ((z[i, l], cap - l),)
            model.add_constraint(
                terms, "<=", cap - 1, tag=f"{family}:win:c{i}:{level}{l}"
            )
    model.add_constraint(
        tuple((z[1, q], 1) for q in range(1, m + 1)),
        ">=",
        1,
        tag=f"{family}:win-some-score",
    )


def _bucklin_alternatives(model, z, m, level, alternatives, names) -> None:
    """Complete the destructive block: besides the given alternatives, some
    rival i reaches a majority within the top l while the target has none
    within the top l-1 (indicator d_{i}_{l})."""
    for i in range(2, m + 1):
        for l in range(1, m + 1):
            terms = ((z[i, l], -1),)
            if l > 1:
                terms += ((z[1, l - 1], 1),)
            alternatives.append([(terms, -1, f"dest:alt:c{i}:{level}{l}")])
            names.append(f"d_{i}_{l}")
    add_alternative_block(model, alternatives, names, "dest:pick")


def encode_bev(profile: StrictProfile, mode: str = "constructive") -> EncodedProblem:
    """Bucklin control by deleting voters.

    Rival score indicators are forced in both directions, so z_{i}_{k}
    means exactly "a strict majority of kept voters ranks i in the top k";
    in destructive mode the target's indicators are forced both ways too,
    so the negated comparisons of the alternative block stay exact.
    """
    destructive = _is_destructive(mode)
    m, n = profile.m, profile.n
    model = LinearProgram("bucklin-voter-control")
    xs = _decision_vars(model, n)
    z = _binaries(model, "z", product(range(1, m + 1), range(1, m + 1)))
    # Per (i, k) the balance row: each voter's x, then z_{i}_{k} (column
    # n + m·(i - 1) + k - 1) with 2n. Halved majority rows are pre-scaled by
    # 2 to keep coefficients integral; a voter ranks i in the top k when its
    # 0-based place of i is below k.
    place = profile.ballots.voter_places().T
    top = place[:, None, :] < np.arange(1, m + 1)[:, None]
    coefs = np.full((m * m, n + 1), 2 * n, dtype=np.int64)
    coefs[:, :n] = np.where(top, -1, 1).reshape(m * m, n)
    cols = np.column_stack([np.tile(np.arange(n), (m * m, 1)), n + np.arange(m * m)])
    caps = [f"bev:score-cap:c{i}:k{k}" for i, k in z]
    _array_rows(model, cols, coefs, ["<="] * len(caps), [2 * n - 1] * len(caps), caps)
    # The target's rows are forced too only in destructive mode.
    start = 0 if destructive else m
    forced = [f"bev:score-forced:c{i}:k{k}" for i, k in list(z)[start:]]
    _array_rows(model, cols[start:], coefs[start:], [">="] * len(forced), [0] * len(forced), forced)
    if not destructive:
        _bucklin_win_rows(model, z, m, "bev", "k")
    elif m == 1:
        _impossible(model, xs)
    else:
        no_score = [(tuple((z[1, l], 1) for l in range(1, m + 1)), 0, "dest:alt:no-score")]
        _bucklin_alternatives(model, z, m, "k", [no_score], ["d_0"])
    return EncodedProblem(model, xs)


def _bucklin_points_rows(model, profile) -> None:
    """Add, per voter j, candidate i and level l in that order, the rows

        better + (m + 1)·y_{j}_{i}_{l} <= m + l          (bec:points-cap)
        better + m·y_{j}_{i}_{l} − m·x_i >= l − m          (bec:points-forced)

    where `better` sums x_k, in index order, over the candidates k voter j
    ranks above i: as many as i's 0-based place. The x are the model's
    first m columns and the y the next n·m² in (j, i, l) order; all
    2·n·m² rows go in as one `add_rows` block."""
    m, n = profile.m, profile.n
    place = profile.ballots.voter_places()
    lengths = np.repeat(place.reshape(-1), 2 * m) + np.tile([1, 2], n * m * m)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    # int32 columns, as the row table holds them.
    cols = np.empty(indptr[-1], dtype=np.int32)
    start, y = 0, m
    for j in range(n):
        for i in range(m):
            # The 2·m rows of (j, i), one level per line: [better, y, better, y, x_i].
            c = place[j, i]
            rows = cols[start : start + m * (2 * c + 3)].reshape(m, 2 * c + 3)
            rows[:, :c] = rows[:, c + 1 : 2 * c + 1] = np.flatnonzero(place[j] < c)
            rows[:, c] = rows[:, 2 * c + 1] = np.arange(y, y + m)
            rows[:, 2 * c + 2] = i
            start += rows.size
            y += m
    cap_ends, forced_ends = indptr[1::2], indptr[2::2]
    coefs = np.ones(cols.size, dtype=np.int32)
    coefs[cap_ends - 1] = m + 1
    coefs[forced_ends - 2] = m
    coefs[forced_ends - 1] = -m
    levels = np.arange(1, m + 1)
    rhs = np.tile(np.column_stack([m + levels, levels - m]).reshape(-1), n * m)
    tags = [
        f"bec:points-{kind}:v{j}:c{i}:l{l}"
        for j in range(1, n + 1)
        for i in range(1, m + 1)
        for l in range(1, m + 1)
        for kind in ("cap", "forced")
    ]
    model.add_rows(indptr, cols, coefs, ["<=", ">="] * (n * m * m), rhs, tags)


def encode_bec(profile: StrictProfile, mode: str = "constructive") -> EncodedProblem:
    """Bucklin control by deleting candidates; same winner logic as the
    voter variant, with y_{j}_{i}_{l} deriving per-voter scores from the
    kept candidate set (all voters always vote)."""
    destructive = _is_destructive(mode)
    m, n = profile.m, profile.n
    model = LinearProgram("bucklin-candidate-control")
    xs = _decision_vars(model, m)
    y = _binaries(model, "y", product(range(1, n + 1), range(1, m + 1), range(1, m + 1)))
    z = _binaries(model, "z", product(range(1, m + 1), range(1, m + 1)))
    model.add_constraint(((xs[0], 1),), "=", 1, tag="bec:target-kept")
    _bucklin_points_rows(model, profile)
    for i in range(2, m + 1):
        terms = tuple(
            (y[j, i, l], 1) for j in range(1, n + 1) for l in range(1, m + 1)
        ) + ((xs[i - 1], -n * m),)
        model.add_constraint(terms, "<=", 0, tag=f"bec:deleted-no-points:c{i}")
    # Majority rows pre-scaled by 2 to keep coefficients integral.
    for i in range(1, m + 1):
        for l in range(1, m + 1):
            terms = ((z[i, l], 2 * n),) + tuple(
                (y[j, i, l], -2) for j in range(1, n + 1)
            )
            model.add_constraint(terms, "<=", n - 1, tag=f"bec:score-cap:c{i}:l{l}")
    for i in range(1 if destructive else 2, m + 1):
        for l in range(1, m + 1):
            terms = tuple((y[j, i, l], 2) for j in range(1, n + 1)) + (
                (z[i, l], -2 * n),
            )
            model.add_constraint(terms, "<=", n, tag=f"bec:score-forced:c{i}:l{l}")
    if not destructive:
        _bucklin_win_rows(model, z, m, "bec", "l")
    elif m == 1:
        model.add_constraint(((xs[0], 1),), "<=", 0, tag="dest:impossible")
    else:
        _bucklin_alternatives(model, z, m, "l", [], [])
    return EncodedProblem(model, xs)


_ENCODERS = {
    ("range", "delete-voters"): encode_re,
    ("condorcet", "delete-voters"): encode_ce,
    ("plurality", "delete-candidates"): encode_pe,
    ("maximin", "delete-voters"): encode_mme,
    ("bucklin", "delete-voters"): encode_bev,
    ("bucklin", "delete-candidates"): encode_bec,
}


def encode_control(election: Election, spec: ControlSpec) -> EncodedProblem:
    """Build the program for a normalized control instance (target index 1)."""
    if spec.target != 1:
        raise ValueError("encode_control expects a target-normalized instance")
    prefs = rule_payload(spec.rule, election)
    return _ENCODERS[(spec.rule, spec.action)](prefs, spec.mode)


def decode(
    problem: EncodedProblem,
    assignment: Assignment,
    election: Election,
    spec: ControlSpec,
) -> ControlSolution:
    """Read the kept set off the decision variables (value > 0.5 counts as
    kept) and recheck the winner on `election` restricted to it.

    `problem` encodes `normalize_target(election, spec)`, so its candidate
    variables are in normalized labels; the transposition (1 target) maps
    them back, and every index of the answer, the rechecked winner
    included, is in `election`'s labels. On a normalized instance (target
    1) that mapping is the identity.

    A recheck that contradicts the requested mode raises VerificationError;
    that never comes from a valid model plus a correct solver.
    """
    values = assignment.values
    kept = tuple(
        idx
        for idx, name in enumerate(problem.decision_vars, start=1)
        if values[name] > 0.5
    )
    if spec.action == "delete-voters":
        total = election.n
    else:
        total = election.m
        kept = tuple(sorted(swap_index(i, 1, spec.target) for i in kept))
    kept_set = set(kept)
    deleted = tuple(i for i in range(1, total + 1) if i not in kept_set)
    winner = winner_after_deletion(election, spec.rule, kept, spec.action)
    ok = (winner == spec.target) if spec.mode == "constructive" else (winner != spec.target)
    verification = {
        "rule": spec.rule,
        "mode": spec.mode,
        "target": spec.target,
        "winner": winner,
        "ok": ok,
    }
    if not ok:
        raise VerificationError(
            f"decoded solution fails the {spec.mode} check: winner={winner}, "
            f"target={spec.target}, kept={kept}"
        )
    return ControlSolution(kept, deleted, len(kept), "Optimal", verification)
