"""The array-built voter encoders against term-by-term references.

`encode_re`, `encode_ce`, `encode_mme` and `encode_bev` build their
per-voter rows with numpy from the rank table (or the score table) and
declare each variable family in one block; `encode_pe` builds its win rows
the same way. The builders below declare one variable at a time and write
every row as `(name, coef)` terms, voter by voter, as the encoders did
before; both programs must export to the same LP and MPS bytes.
"""

from __future__ import annotations

import itertools
import random

import pytest

from ballotcontrol import (
    MODES,
    LinearProgram,
    ScoreMatrix,
    StrictProfile,
    add_alternative_block,
    encode_bev,
    encode_ce,
    encode_mme,
    encode_pe,
    encode_re,
    export_lp,
    export_mps,
)
from ballotcontrol.encoders import _bucklin_alternatives, _bucklin_win_rows
from genutil import random_profile


def decision_vars(model, count):
    names = tuple(f"x_{k}" for k in range(1, count + 1))
    for name in names:
        model.add_variable(name, "binary")
    model.set_objective("max", tuple((name, 1) for name in names))
    return names


def impossible(model, xs):
    model.add_constraint(tuple((x, 1) for x in xs), "<=", -1, tag="dest:impossible")


def duel_rows(model, xs, family, duels, destructive, big_m=None):
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
        impossible(model, xs)


def oracle_re(scores, mode):
    m, n = scores.m, scores.n
    model = LinearProgram("range-control")
    xs = decision_vars(model, n)
    duels = [
        (i, tuple((xs[j], scores.scores[0][j] - scores.scores[i - 1][j]) for j in range(n)))
        for i in range(2, m + 1)
    ]
    big_m = n * max(max(row) for row in scores.scores)
    duel_rows(model, xs, "re", duels, mode == "destructive", big_m)
    return model


def oracle_ce(profile, mode):
    model = LinearProgram("condorcet-control")
    xs = decision_vars(model, profile.n)
    duels = [
        (i, tuple((x, 1 if p[0] < p[i - 1] else -1) for x, p in zip(xs, profile.positions)))
        for i in range(2, profile.m + 1)
    ]
    duel_rows(model, xs, "ce", duels, mode == "destructive")
    return model


def oracle_pe(profile, mode):
    m, n = profile.m, profile.n
    model = LinearProgram("plurality-control")
    xs = decision_vars(model, m)
    z = {
        (i, j): model.add_variable(f"z_{i}_{j}", "binary")
        for i in range(1, m + 1)
        for j in range(1, n + 1)
    }
    model.add_constraint(((xs[0], 1),), "=", 1, tag="pe:target-kept")
    for i in range(1, m + 1):
        for j, place in enumerate(profile.positions, start=1):
            better = tuple((x, 1) for x, q in zip(xs, place) if q < place[i - 1])
            model.add_constraint(better + ((z[i, j], m),), "<=", m, tag=f"pe:top-blocked:c{i}:v{j}")
            model.add_constraint(
                better + ((z[i, j], 1), (xs[i - 1], -1)), ">=", 0, tag=f"pe:top-forced:c{i}:v{j}"
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
    duel_rows(model, xs, "pe", duels, mode == "destructive")
    return model


def oracle_mme(profile, mode):
    destructive = mode == "destructive"
    m, n = profile.m, profile.n
    model = LinearProgram("maximin-control-destructive" if destructive else "maximin-control")
    xs = decision_vars(model, n)
    b = model.add_variable("b", "integer", 0 if destructive else 1, n)

    def backers(i, k, coef):
        return tuple((x, coef) for x, p in zip(xs, profile.positions) if p[i - 1] < p[k - 1])

    if destructive and m == 1:
        impossible(model, xs)
    elif destructive:
        target_min = [
            [(backers(1, k, 1) + ((b, -1),), 0, f"dest:target-min:c{k}")] for k in range(2, m + 1)
        ]
        u = [f"u_{k}" for k in range(2, m + 1)]
        add_alternative_block(model, target_min, names=u, pick_tag="dest:pick-target-min")
        rival_min = [
            [
                (((b, 1),) + backers(i, k, -1), 0, f"dest:rival-min:c{i}:c{k}")
                for k in range(1, m + 1)
                if k != i
            ]
            for i in range(2, m + 1)
        ]
        w = [f"w_{i}" for i in range(2, m + 1)]
        add_alternative_block(model, rival_min, names=w, pick_tag="dest:pick-rival")
    else:
        z = {}
        for i in range(2, m + 1):
            for k in range(1, m + 1):
                if k != i:
                    z[i, k] = model.add_variable(f"z_{i}_{k}", "binary")
        for (i, k), zik in z.items():
            supporters = backers(i, k, 1)
            cap = max(len(supporters), 1)
            model.add_constraint(
                supporters + ((zik, cap), (b, -1)), "<=", cap - 1, tag=f"mme:rival-cap:c{i}:c{k}"
            )
        for i in range(2, m + 1):
            terms = tuple((z[i, k], 1) for k in range(1, m + 1) if k != i)
            model.add_constraint(terms, ">=", 1, tag=f"mme:rival-some:c{i}")
        for k in range(2, m + 1):
            terms = ((b, 1),) + backers(1, k, -1)
            model.add_constraint(terms, "<=", 0, tag=f"mme:target-floor:c{k}")
    return model


def oracle_bev(profile, mode):
    destructive = mode == "destructive"
    m, n = profile.m, profile.n
    model = LinearProgram("bucklin-voter-control")
    xs = decision_vars(model, n)
    z = {
        (i, k): model.add_variable(f"z_{i}_{k}", "binary")
        for i in range(1, m + 1)
        for k in range(1, m + 1)
    }

    def balance(i, k):
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
        impossible(model, xs)
    else:
        no_score = [(tuple((z[1, l], 1) for l in range(1, m + 1)), 0, "dest:alt:no-score")]
        _bucklin_alternatives(model, z, m, "k", [no_score], ["d_0"])
    return model


PAIRS = {
    "range": (encode_re, oracle_re),
    "condorcet": (encode_ce, oracle_ce),
    "plurality": (encode_pe, oracle_pe),
    "maximin": (encode_mme, oracle_mme),
    "bucklin": (encode_bev, oracle_bev),
}

SIZES = ((1, 1), (1, 2), (2, 1), (3, 2), (4, 3), (7, 4), (12, 5))


def payloads(rule):
    """Random payloads at every size, plus the edge cases: range ballots
    that tie the target with a rival (zero coefficients), and unanimous
    ballots, under which a maximin rival has no supporters against the
    candidates ranked above it (cap 1)."""
    rng = random.Random(f"voter oracle {rule}")
    for n, m in SIZES:
        if rule == "range":
            yield ScoreMatrix(tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(m)))
            yield ScoreMatrix(tuple((j % 3,) * n for j in range(m)) if m > 1 else ((1,) * n,))
        else:
            yield StrictProfile(tuple(random_profile(rng, n, m)))
            yield StrictProfile((tuple(range(1, m + 1)),) * n)


@pytest.mark.parametrize("rule, mode", list(itertools.product(sorted(PAIRS), MODES)))
def test_array_encoders_export_like_the_term_builders(rule, mode):
    encode, oracle = PAIRS[rule]
    for prefs in payloads(rule):
        got, expected = encode(prefs, mode).model, oracle(prefs, mode)
        assert export_lp(got) == export_lp(expected), (prefs, mode)
        assert export_mps(got) == export_mps(expected), (prefs, mode)


def test_the_edge_cases_occur():
    """The payloads hold a zero coefficient in a range win row and a
    maximin rival-cap row with no supporters."""
    zeros = [
        coef
        for prefs in payloads("range")
        for cols, coefs, *_ in encode_re(prefs).model._row_items()
        for coef in coefs
        if coef == 0
    ]
    assert zeros
    caps = [
        cols
        for prefs in payloads("maximin")
        for cols, coefs, sense, rhs, tag in encode_mme(prefs).model._row_items()
        if tag.startswith("mme:rival-cap") and len(cols) == 2
    ]
    assert caps
