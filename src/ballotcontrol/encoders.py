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

Rows reach the program in two forms: `(name, coef)` term tuples, which an
alternative block also takes (each alternative a list of `(terms, rhs,
tag)` rows read as `terms <= rhs`), and, for the 2·n·m² Bucklin points
rows (`_bucklin_points_rows`), one block of CSR arrays over column indices
(`LinearProgram.add_rows`).

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
    return tuple(
        tuple(int(p[0] < p[i]) for p in profile.positions) for i in range(1, profile.m)
    )


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
    """The keep binaries x_1..x_count (voters or candidates) and the
    objective that keeps as many as possible."""
    names = tuple(f"x_{k}" for k in range(1, count + 1))
    for name in names:
        model.add_variable(name, BINARY)
    model.set_objective("max", tuple((name, 1) for name in names))
    return names


def _impossible(model: LinearProgram, xs) -> None:
    # With one candidate the target wins vacuously under every restriction,
    # so the destructive problem has no solution at all.
    model.add_constraint(tuple((x, 1) for x in xs), "<=", -1, tag="dest:impossible")


def _duel_rows(model, xs, family, duels, destructive, big_m=None) -> None:
    """Rows for per-rival balances `terms` the target wins when positive.

    Constructive: every balance is at least 1 ("{family}:win:c{i}").
    Destructive: at least one balance is at most 0, through an alternative
    block with indicator y_{i} per rival i.
    """
    if not destructive:
        for i, terms in duels:
            model.add_constraint(terms, ">=", 1, tag=f"{family}:win:c{i}")
    elif duels:
        add_alternative_block(
            model,
            [[(terms, 0, f"dest:alt:c{i}")] for i, terms in duels],
            big_m=big_m,
            names=[f"y_{i}" for i, _ in duels],
            pick_tag="dest:pick",
        )
    else:
        _impossible(model, xs)


def encode_re(scores: ScoreMatrix, mode: str = "constructive") -> EncodedProblem:
    """Range control by deleting voters: keep a maximum voter set for which
    the target's total strictly beats every rival's total (constructive) or
    fails to beat some rival's total (destructive)."""
    destructive = _is_destructive(mode)
    m, n = scores.m, scores.n
    model = LinearProgram("range-control")
    xs = _decision_vars(model, n)
    duels = [
        (i, tuple((xs[j], scores.scores[0][j] - scores.scores[i - 1][j]) for j in range(n)))
        for i in range(2, m + 1)
    ]
    big_m = n * max(max(row) for row in scores.scores)
    _duel_rows(model, xs, "re", duels, destructive, big_m)
    return EncodedProblem(model, xs)


def encode_ce(profile: StrictProfile, mode: str = "constructive") -> EncodedProblem:
    """Condorcet control by deleting voters: every kept-voter pairwise duel
    of the target against a rival must be won strictly (constructive), or
    some duel must not be (destructive); the +-1 rows express a win as a
    positive balance."""
    destructive = _is_destructive(mode)
    model = LinearProgram("condorcet-control")
    xs = _decision_vars(model, profile.n)
    duels = [
        (i, tuple((x, 1 if p[0] < p[i - 1] else -1) for x, p in zip(xs, profile.positions)))
        for i in range(2, profile.m + 1)
    ]
    _duel_rows(model, xs, "ce", duels, destructive)
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
    z = {
        (i, j): model.add_variable(f"z_{i}_{j}", BINARY)
        for i in range(1, m + 1)
        for j in range(1, n + 1)
    }
    model.add_constraint(((xs[0], 1),), "=", 1, tag="pe:target-kept")
    for i in range(1, m + 1):
        for j, place in enumerate(profile.positions, start=1):
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
    duels = [
        (
            i,
            tuple((z[1, j], 1) for j in range(1, n + 1))
            + tuple((z[i, j], -1) for j in range(1, n + 1)),
        )
        for i in range(2, m + 1)
    ]
    _duel_rows(model, xs, "pe", duels, destructive)
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

    def backers(i, k, coef):
        # The kept voters preferring candidate i to candidate k.
        return tuple((x, coef) for x, p in zip(xs, profile.positions) if p[i - 1] < p[k - 1])

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
        z = {}
        for i in range(2, m + 1):
            for k in range(1, m + 1):
                if k != i:
                    z[i, k] = model.add_variable(f"z_{i}_{k}", BINARY)
        for (i, k), zik in z.items():
            supporters = backers(i, k, 1)
            # The relaxation constant only has to cover the advantage this
            # row can reach, which is the number of supporting voters.
            cap = max(len(supporters), 1)
            model.add_constraint(
                supporters + ((zik, cap), (b, -1)),
                "<=",
                cap - 1,
                tag=f"mme:rival-cap:c{i}:c{k}",
            )
        for i in range(2, m + 1):
            model.add_constraint(
                tuple((z[i, k], 1) for k in range(1, m + 1) if k != i),
                ">=",
                1,
                tag=f"mme:rival-some:c{i}",
            )
        for k in range(2, m + 1):
            model.add_constraint(
                ((b, 1),) + backers(1, k, -1), "<=", 0, tag=f"mme:target-floor:c{k}"
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
    z = {
        (i, k): model.add_variable(f"z_{i}_{k}", BINARY)
        for i in range(1, m + 1)
        for k in range(1, m + 1)
    }

    def balance(i, k):
        # Halved majority rows are pre-scaled by 2 to keep coefficients
        # integral; a voter ranks i in the top k when its 0-based place of i
        # is below k.
        terms = tuple((x, -1 if p[i - 1] < k else 1) for x, p in zip(xs, profile.positions))
        return terms + ((z[i, k], 2 * n),)

    for i, k in z:
        model.add_constraint(balance(i, k), "<=", 2 * n - 1, tag=f"bev:score-cap:c{i}:k{k}")
    for i, k in z:
        if i > 1 or destructive:
            model.add_constraint(balance(i, k), ">=", 0, tag=f"bev:score-forced:c{i}:k{k}")
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
    place = np.array(profile.positions)
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
    y = {
        (j, i, l): model.add_variable(f"y_{j}_{i}_{l}", BINARY)
        for j in range(1, n + 1)
        for i in range(1, m + 1)
        for l in range(1, m + 1)
    }
    z = {
        (i, l): model.add_variable(f"z_{i}_{l}", BINARY)
        for i in range(1, m + 1)
        for l in range(1, m + 1)
    }
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
