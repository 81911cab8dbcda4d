"""Bound propagation against the two-sided reference.

`solver._propagate` keeps both kinds of bound in one signed vector and
makes one product, one gather and one reduction per pass. The reference
below is the pass it replaced: the positive and the negative entries of
the one-sided rows apart, each with its own product, its own caps
grouped by column and its own reduction and rounding. On random programs
and sub-boxes both must return the same value and leave the same bounds,
byte for byte (signed zeros count), also when a box fails.
"""

from __future__ import annotations

import collections
import random

import numpy as np
import pytest

from ballotcontrol import LinearProgram
from ballotcontrol import solver as solver_module
from ballotcontrol.solver import _entries_where, _matvec, _scipy_extension, _to_csc


def by_column(rows, ncols):
    """The entries of the CSR arrays `rows` sorted by column, then row:
    the row, column and value of each entry, the first entry of each
    non-empty column, and those columns."""
    colptr, row_of, values = _to_csc(rows, ncols)
    counts = np.diff(colptr)
    ucols = np.flatnonzero(counts)
    cols = np.repeat(np.arange(ncols), counts)
    return row_of.astype(np.intp), cols, values, colptr[ucols].astype(np.intp), ucols


def reference_data(sf):
    """The rows as `A @ x <= b`: the rows bounded above, then the negated
    rows bounded below, split into their positive and negative entries,
    each also grouped by column."""
    above = np.flatnonzero(np.isfinite(sf.row_upper))
    below = np.flatnonzero(np.isfinite(sf.row_lower))
    picked = np.concatenate((above, below)).astype(np.int32)
    b_ub = np.concatenate((sf.row_upper[above], -sf.row_lower[below]))
    stacked = np.zeros(picked.size + 1, dtype=np.int32)
    np.cumsum(np.diff(sf.rows[0])[picked], out=stacked[1:])
    indices = np.empty(stacked[-1], dtype=np.int32)
    data = np.empty(stacked[-1])
    _scipy_extension("sparse._sparsetools").csr_row_index(
        picked.size, picked, *sf.rows, indices, data
    )
    head = stacked[above.size]
    data[head:] = -data[head:]
    pos = _entries_where((stacked, indices, data), data > 0)
    neg = _entries_where((stacked, indices, data), data < 0)
    return b_ub, pos, neg, by_column(pos, sf.ncols), by_column(neg, sf.ncols)


def reference_propagate(sf, lower, upper):
    """The two-sided pass: `(feasible, ending, passes)`, where `ending`
    tells how it stopped: "entry" (a crossed box), "rows" (a row's minimum
    activity above its bound), "bounds" (crossed bounds after a pass),
    "fixpoint", "cap" (50 passes) or "no rows"."""
    integral = sf.integral
    if sf.nrows == 0:
        low, high = np.ceil(lower - 1e-6), np.floor(upper + 1e-6)
        np.copyto(lower, low, where=integral & (low > lower))
        np.copyto(upper, high, where=integral & (high < upper))
        return not np.any(lower > upper + 1e-9), "no rows", 0
    b_ub, pos, neg, caps_above, caps_below = reference_data(sf)
    if np.any(lower > upper + 1e-9):
        return False, "entry", 0
    for passes in range(1, 51):
        minact = _matvec(pos, lower) + _matvec(neg, upper)
        if np.any(minact > b_ub + 1e-7):
            return False, "rows", passes
        slack = b_ub - minact
        new_upper = upper.copy()
        new_lower = lower.copy()
        rows, cols, coef, starts, ucols = caps_above
        if ucols.size:
            cand = lower[cols] + slack[rows] / coef
            seg = np.minimum.reduceat(cand, starts)
            new_upper[ucols] = np.minimum(new_upper[ucols], seg)
        rows, cols, coef, starts, ucols = caps_below
        if ucols.size:
            cand = upper[cols] + slack[rows] / coef
            seg = np.maximum.reduceat(cand, starts)
            new_lower[ucols] = np.maximum(new_lower[ucols], seg)
        new_upper[integral] = np.floor(new_upper[integral] + 1e-6)
        new_lower[integral] = np.ceil(new_lower[integral] - 1e-6)
        np.minimum(upper, new_upper, out=new_upper)
        np.maximum(lower, new_lower, out=new_lower)
        if np.any(new_lower > new_upper + 1e-9):
            return False, "bounds", passes
        changed = np.any(upper - new_upper > 1e-9) or np.any(new_lower - lower > 1e-9)
        upper[:] = new_upper
        lower[:] = new_lower
        if not changed:
            return True, "fixpoint", passes
    return True, "cap", 50


KINDS = {
    "integral": ("binary", "integer"),
    "mixed": ("binary", "integer", "continuous"),
    "continuous": ("continuous",),
}


def random_program(rng, kinds, empty_rows=False):
    """A random program over columns of the given kinds, with fractional,
    negative and zero coefficients, rows of all three senses, about one
    row in eight empty, and right-hand sides around the activity of a
    random point of the box, so some boxes fail and most tighten. With
    `empty_rows`, every row is empty."""
    model = LinearProgram("propagation")
    names, point = [], {}
    for i in range(rng.randint(1, 10)):
        kind = rng.choice(kinds)
        if kind == "binary":
            lower, upper = 0, 1
        elif kind == "integer":
            lower = rng.randint(-5, 2)
            upper = lower + rng.randint(0, 8)
        else:
            lower = rng.choice((-2.5, -1, 0, 0.25, 1.5))
            upper = lower + rng.choice((0, 0.5, 1, 3.75, 10))
        names.append(model.add_variable(f"x{i}", kind, lower, upper))
        point[names[-1]] = (
            lower + (upper - lower) * rng.random() if kind == "continuous" else rng.randint(lower, upper)
        )
    model.set_objective("max", [(names[0], 1)])

    def coef():
        return rng.randint(-20, 20) / rng.choice((1, 1, 2, 3, 7, 10))

    for _ in range(rng.randint(1, 9)):
        sense = rng.choice(("<=", ">=", "="))
        if empty_rows or rng.random() < 0.125:
            model.add_constraint([], sense, rng.choice((-1, 0, 0, 1)))
            continue
        terms = [(x, coef()) for x in names if rng.random() < 0.6]
        activity = sum(c * point[x] for x, c in terms)
        offset = {"<=": 1, ">=": -1, "=": 0}[sense] * rng.randint(-1, 3) / rng.choice((1, 4))
        model.add_constraint(terms, sense, activity + offset)
    return model


def boxes(rng, sf, count):
    """`count` random boxes inside the column box of `sf`, integral on
    the integral columns, about one in ten crossed in one column."""
    for _ in range(count):
        lower, upper = sf.lower.copy(), sf.upper.copy()
        for j in range(sf.ncols):
            if rng.random() < 0.6:
                continue
            lo, hi = lower[j], upper[j]
            if sf.integral[j]:
                a = rng.randint(int(lo), int(hi))
                b = a if rng.random() < 0.3 else rng.randint(a, int(hi))
            else:
                a = lo + (hi - lo) * rng.random() / 2
                b = a if rng.random() < 0.2 else hi - (hi - a) * rng.random() / 2
            lower[j], upper[j] = a, b
        if rng.random() < 0.1:
            j = rng.randrange(sf.ncols)
            lower[j] = upper[j] + rng.choice((1e-6, 1))
        yield lower, upper


def program(columns, rows):
    """A program from `columns` as (kind, lower, upper) and `rows` as
    (terms over column indices, sense, rhs)."""
    model = LinearProgram("hand")
    names = [model.add_variable(f"x{j}", *spec) for j, spec in enumerate(columns)]
    model.set_objective("max", [(names[0], 1)])
    for terms, sense, rhs in rows:
        model.add_constraint([(names[j], c) for j, c in terms], sense, rhs)
    return model


def signed_zero_programs():
    """Programs whose first column gets a lower bound of exactly +0,
    where a cap or a rounding computed on the negated bound would give
    -0."""
    # x >= 0 over [-1, 1]: the cap on the lower bound is 1 + (-1), which
    # is +0; computed as (-1) - (-1) on the negated bound it would be -0.
    yield program([("continuous", -1, 1)], [([(0, 1)], ">=", 0)])
    yield program([("continuous", -1, 1), ("integer", 0, 2)], [([(0, 2), (1, -0.5)], ">=", 0)])
    # -x/16 <= -1e-6/16 over the integers of [-3, 0]: the slack, 1e-6/16,
    # is within the activity tolerance, the lower bound is raised to
    # exactly 1e-6 and rounded as ceil(1e-6 - 1e-6), which is +0.
    yield program([("integer", -3, 0)], [([(0, -1 / 16)], "<=", -1e-6 / 16)])


def hand_programs():
    """Programs that reach the rare endings and values on their full box."""
    # A geometric chain: every pass shrinks both upper bounds by 0.9.
    yield program(
        [("continuous", 0, 100), ("continuous", 0, 100)],
        [([(0, 1), (1, -0.9)], "<=", 0), ([(1, 1), (0, -0.9)], "<=", 0)],
    )
    # An integral cycle x0 <= x1 - 1 <= x0 - 2: each pass lowers both
    # upper bounds by 1, so 50 passes end before the bounds cross.
    yield program(
        [("integer", 0, 200), ("integer", 0, 200)],
        [([(0, 1), (1, -1)], "<=", -1), ([(1, 1), (0, -1)], "<=", -1)],
    )
    # The same cycle over a short box crosses its bounds after a few passes.
    yield program(
        [("integer", 0, 5), ("integer", 0, 5)],
        [([(0, 1), (1, -1)], "<=", -1), ([(1, 1), (0, -1)], "<=", -1)],
    )
    yield from signed_zero_programs()
    # An empty row with a negative bound fails on the first pass.
    yield program([("binary", 0, 1)], [([], "<=", -1), ([(0, 1)], "<=", 1)])
    # Only empty rows: the bounds are rounded, nothing else.
    yield program([("integer", -1.5, 2.5), ("continuous", -1, 1)], [([], ">=", -1), ([], "=", 0)])


def outcome(sf, lower, upper):
    """`_propagate` and the reference on copies of one box must return the
    same value and leave the same bounds; how the reference ended, with
    "later" added after more than one pass."""
    got_lower, got_upper = lower.copy(), upper.copy()
    want_lower, want_upper = lower.copy(), upper.copy()
    got = solver_module._propagate(sf, got_lower, got_upper)
    want, ending, passes = reference_propagate(sf, want_lower, want_upper)
    assert got == want
    assert got_lower.tobytes() == want_lower.tobytes()
    assert got_upper.tobytes() == want_upper.tobytes()
    return ending if passes <= 1 else f"{ending} later"


def test_propagate_matches_the_two_sided_pass():
    """Random programs of each kind on their full box and six sub-boxes,
    programs with only empty rows and the hand-built ones on three; every
    way a pass can end is met, on the first pass and on a later one."""
    rng = random.Random("propagation oracle")
    cases = [(random_program(rng, KINDS[kind]), 6) for kind in sorted(KINDS) for _ in range(60)]
    cases += [(random_program(rng, KINDS["mixed"], empty_rows=True), 3) for _ in range(6)]
    cases += [(model, 3) for model in hand_programs()]
    seen = collections.Counter()
    for model, count in cases:
        sf = solver_module._standard_form(model)
        seen[outcome(sf, sf.lower.copy(), sf.upper.copy())] += 1
        for lower, upper in boxes(rng, sf, count):
            seen[outcome(sf, lower, upper)] += 1
    for ending in ("entry", "rows", "rows later", "bounds", "bounds later", "fixpoint later", "cap later"):
        assert seen[ending], f"no box ended with {ending}: {dict(seen)}"


@pytest.mark.parametrize("index", range(3))
def test_raised_lower_bound_is_positive_zero(index):
    model = list(signed_zero_programs())[index]
    sf = solver_module._standard_form(model)
    lower, upper = sf.lower.copy(), sf.upper.copy()
    assert solver_module._propagate(sf, lower, upper)
    assert lower[0] == 0 and not np.signbit(lower[0])
