"""Deterministic exact solver for the control programs.

Every LP relaxation of one `solve()` goes to a single HiGHS instance: the
model is passed once, and each node, dive step and probe only changes the
column bounds and re-runs the dual simplex from the previous basis. The
rows are plain numpy CSR arrays: the terms come from the model's
`RowTable`, the senses and right-hand sides from its row store. Two of
scipy's compiled extensions do the work: the HiGHS binding
`scipy.optimize._highspy._core` (scipy 1.15 and later) and the sparse
kernels of `scipy.sparse._sparsetools`. Both are loaded straight from
their files, so a fresh process imports neither the `scipy` package nor
`scipy.optimize` nor `scipy.sparse`.

HiGHS runs without presolve. Only the root LP would run it, since a warm
re-solve skips it, and on the Bucklin candidate-deletion programs of
m = 30 and m = 40 it made that LP about three times slower (m = 30:
0.17 s against 0.04-0.06 s; m = 40: 0.38 s against 0.12 s; medians of 5
on a shared 2-core machine) for the same number of dual simplex
iterations within 4% (about 2 400 and 4 200).
Without it, HiGHS may return another optimal LP vertex, so node counts
and incumbent points can differ from a presolved search; statuses and
objectives cannot.

Before the search, equal integral columns are merged (`_merge_columns`):
a class of c columns with the same entries, objective coefficient and
bounds [l, u] is searched as one count column over [c·l, c·u], which is
exact, since c integers in [l, u] sum to every integer of that range. In
a control program these are the keep variables of voters with the same
ballot. The answer spreads each class's count back over its columns:
each gets l, and the columns are filled up to u in ascending order, so
among interchangeable voters the lowest-indexed are kept. A model with no
two equal integral columns is searched as it is. Node counts are those of
the merged search.

On top sits a best-first branch and bound: node selection by best dual
bound (ties broken by depth, then creation order, with the down branch
created first), branching on the most fractional integral variable (ties
by lowest variable index), a rounding heuristic seeding incumbents at every
node, and strengthened pruning for integral objectives. A near-integral
node whose rounded point fails the row check is branched on its largest
rounding error, never dropped. Every step is deterministic, so two runs of
the same model and config return identical statuses, incumbents, and node
counts.

Incumbents are only accepted after an exact feasibility check of the
rounded point, and the final incumbent, spread over the columns of the
model, is re-verified on the model (rows, integrality and variable
bounds) with `check_assignment` at `FEASIBILITY_TOL` and
`INTEGRALITY_TOL` before it is returned.
"""

from __future__ import annotations

import heapq
import importlib.machinery
import importlib.util
import math
import numbers
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .ilp import CONTINUOUS, Assignment, LinearProgram, check_assignment


class SolverError(RuntimeError):
    """Internal solver failure (iteration blowup, backend error)."""


@dataclass(frozen=True)
class SolverConfig:
    """Search limits. A search explores at most `node_limit` nodes, an
    integer (Python or numpy) of at least 1: each branching expands two,
    so it stops one node short of an even limit. `time_limit` is a
    positive real number of wall-clock seconds. Neither may be a bool."""

    node_limit: Optional[int] = None
    time_limit: Optional[float] = None

    def __post_init__(self):
        node, seconds = self.node_limit, self.time_limit
        if node is not None and not (
            isinstance(node, numbers.Integral) and not isinstance(node, bool) and node >= 1
        ):
            raise ValueError(f"node limit must be an integer of at least 1, got {node!r}")
        if seconds is not None and not (
            isinstance(seconds, numbers.Real) and not isinstance(seconds, bool) and seconds > 0
        ):
            raise ValueError(f"time limit must be a positive number of seconds, got {seconds!r}")


@dataclass(frozen=True)
class LpOutcome:
    status: str
    value: Optional[float]
    point: Optional[dict]


@dataclass(frozen=True)
class SolveResult:
    status: str
    incumbent: Optional[Assignment]
    objective: Optional[object]
    bound: Optional[float]
    nodes_explored: int
    wall_time: float


def canonical_result(result: SolveResult) -> str:
    """Canonical rendering for determinism checks; wall time is excluded."""
    if result.incumbent is None:
        point = "-"
    else:
        point = ",".join(
            f"{name}={value!r}" for name, value in sorted(result.incumbent.values.items())
        )
    return (
        f"status={result.status};objective={result.objective!r};"
        f"bound={result.bound!r};nodes={result.nodes_explored};point={point}"
    )


_TOL = 1e-9
# Row violation accepted in an incumbent, objective gap at which a node is
# cut off (for a non-integral objective), and distance from an integer at
# which an LP value counts as integral.
FEASIBILITY_TOL = 1e-6
OPTIMALITY_TOL = 1e-6
INTEGRALITY_TOL = 1e-5


@dataclass(frozen=True, eq=False)
class _StandardForm:
    """Arrays shared by every LP solve of one model, built by
    `_standard_form`.

    The rows are the plain CSR arrays `rows = (indptr, indices, data)` of
    a matrix `A`, with `indptr` and `indices` int32 and each row's nonzero
    terms in the order of its constraint, and `row_lower <= A @ x <=
    row_upper`, where a side the row does not bound is infinite: a `<=`
    row has `row_lower = -inf`, a `>=` row `row_upper = +inf`, and an `=`
    row its right-hand side on both. HiGHS gets the rows in this
    two-sided form, and `propagation_data` writes them once more in the
    one-sided form `A @ x <= b`, with the positive and the negative
    entries apart over the bound vector `[upper; lower]`. The columns have
    finite boxes `lower`/`upper`, and `obj` is the objective, internally
    always maximized; `integral_objective` tells whether it takes only
    integral values at integral points (`_objective_is_integral`). The
    merged form of `_merge_columns` shares `row_lower` and `row_upper`
    with the form it is derived from; the search writes no array of
    either.
    """

    lower: np.ndarray
    upper: np.ndarray
    integral: np.ndarray
    sign: float
    obj: np.ndarray
    integral_objective: bool
    rows: tuple
    row_lower: np.ndarray
    row_upper: np.ndarray

    @property
    def ncols(self) -> int:
        return self.lower.size

    @property
    def nrows(self) -> int:
        return self.rows[0].size - 1

    def feasible_point(self, x: np.ndarray, tol: float) -> bool:
        acts = _matvec(self.rows, x)
        return not (
            np.any(acts > self.row_upper + tol) or np.any(acts < self.row_lower - tol)
        )

    @cached_property
    def propagation_data(self):
        """The rows as `A @ x <= b` for `_propagate`, over the bound
        vector `[upper; lower]` of length 2n.

        `A` stacks the rows bounded above, then the negated rows bounded
        below, so a `>=` row is negated and an `=` row appears both ways,
        with `b = [row_upper; -row_lower]`; `threshold` is `b + 1e-7`. A
        row's minimum activity reads its positive entries at their lower
        bounds and its negative entries at their upper bounds, so `rows`
        holds the CSR arrays `(indptr, indices, data)` of `[P; N]`, 2r rows
        over 2n columns: P has each positive entry at column n + j, N each
        negative entry at column j, and every row its entries in term
        order. One product over the bound vector gives both sums of each
        row, each summed as a product over P or N alone would sum it.

        `caps` holds the same entries grouped by the column they read,
        each column's by row, through the kernel `scipy.sparse` uses for
        that: first the `split` entries of N (column j, reading `upper_j`,
        capping `lower_j`), then those of P (column n + j, reading
        `lower_j`, capping `upper_j`). Per entry it holds the row of `b`,
        the column read and the coefficient; per column with entries, the
        first of them and the bound capped, as an index into the signed
        vector `[upper; -lower]`. Rows, columns and starts are `np.intp`,
        which numpy would otherwise convert to on every fancy index. All
        of it takes 36 bytes per entry.

        `sign` is +1 on the n upper bounds and -1 on the n lower ones, so
        `bounds * sign` converts between the two vectors; `offset` is
        +1e-6 and -1e-6 on them, and `integral` tells the integral ones.
        """
        n = self.ncols
        above = np.flatnonzero(np.isfinite(self.row_upper))
        below = np.flatnonzero(np.isfinite(self.row_lower))
        picked = np.concatenate((above, below)).astype(np.int32)
        b = np.concatenate((self.row_upper[above], -self.row_lower[below]))
        stacked = np.zeros(picked.size + 1, dtype=np.int32)
        np.cumsum(np.diff(self.rows[0])[picked], out=stacked[1:])
        indices = np.empty(stacked[-1], dtype=np.int32)
        data = np.empty(stacked[-1])
        _scipy_extension("sparse._sparsetools").csr_row_index(
            picked.size, picked, *self.rows, indices, data
        )
        head = stacked[above.size]
        data[head:] = -data[head:]
        pos = _entries_where((stacked, indices, data), data > 0)
        neg = _entries_where((stacked, indices, data), data < 0)
        # Each step's inputs are dropped once its output is built, so the
        # build peaks at about what the arrays it returns hold.
        del stacked, indices, data
        rows = (
            np.concatenate((pos[0], neg[0][1:] + pos[0][-1])),
            np.concatenate((pos[1] + n, neg[1])),
            np.concatenate((pos[2], neg[2])),
        )
        del pos, neg
        colptr, row_of, coef = _to_csc(rows, 2 * n)
        split = int(colptr[n])
        entry_rows = row_of.astype(np.intp)
        del row_of
        entry_rows[:split] -= picked.size
        counts = np.diff(colptr)
        ucols = np.flatnonzero(counts)
        caps = (
            entry_rows,
            np.repeat(np.arange(2 * n), counts),
            coef,
            colptr[ucols].astype(np.intp),
            np.where(ucols < n, ucols + n, ucols - n),
            split,
        )
        return (
            b,
            b + 1e-7,
            rows,
            caps,
            np.repeat((1.0, -1.0), n),
            np.repeat((1e-6, -1e-6), n),
            np.concatenate((self.integral, self.integral)),
        )


def _standard_form(model: LinearProgram) -> _StandardForm:
    """The standard form of `model`, its columns in the model's column
    order."""
    ncols = len(model._names)
    if not ncols:
        raise ValueError("model has no variables")
    lower = np.fromiter(map(float, model._lower), float, ncols)
    upper = np.fromiter(map(float, model._upper), float, ncols)
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("the solver requires finite variable bounds")
    integral = np.array(model._kinds) != CONTINUOUS
    sign = 1.0 if model.objective_sense == "max" else -1.0
    obj_cols = np.array(model._obj_cols, dtype=np.intp)
    obj = np.zeros(ncols)
    # `set_objective` admits each variable once, so no column repeats.
    obj[obj_cols] += np.fromiter(map(float, model._obj_coefs), float, obj_cols.size)
    table = model.row_table()
    data = table.coefs.astype(float)
    bound = np.array(model._rhs, dtype=float)
    senses = np.array(model._senses, dtype="<U2")
    return _StandardForm(
        lower,
        upper,
        integral,
        sign,
        sign * obj,
        _objective_is_integral(model._obj_coefs, integral[obj_cols]),
        _entries_where((table.indptr, table.indices, data), data != 0),
        np.where(senses != "<=", bound, -np.inf),
        np.where(senses != ">=", bound, np.inf),
    )


def _entries_where(rows, keep):
    """The CSR arrays `rows` cut to the entries where `keep` holds, each
    row keeping its entries in their order."""
    indptr, indices, data = rows
    kept = np.zeros(keep.size + 1, dtype=np.int32)
    np.cumsum(keep, out=kept[1:])
    return kept[indptr], indices[keep], data[keep]


def _matvec(rows, x):
    """`A @ x` for the CSR arrays `rows` of `A`, by the kernel behind
    `scipy.sparse`'s own product, so every row sums in the same order."""
    indptr, indices, data = rows
    out = np.zeros(indptr.size - 1)
    _scipy_extension("sparse._sparsetools").csr_matvec(
        indptr.size - 1, x.size, indptr, indices, data, x, out
    )
    return out


def _to_csc(rows, ncols):
    """The CSC arrays `(colptr, row_of, values)` of the CSR arrays `rows`:
    the entries sorted by column, then row."""
    indptr, indices, data = rows
    colptr = np.empty(ncols + 1, dtype=np.int32)
    row_of = np.empty(indices.size, dtype=np.int32)
    values = np.empty(data.size)
    _scipy_extension("sparse._sparsetools").csr_tocsc(
        indptr.size - 1, ncols, indptr, indices, data, colptr, row_of, values
    )
    return colptr, row_of, values


def _merge_columns(sf: _StandardForm):
    """`sf` with every class of equal integral columns searched as one
    count column, and the function that spreads a point of the merged form
    back over the columns of `sf`: `sf` itself and the identity when no two
    columns are equal.

    Two integral columns are equal when they have the same entries (row and
    value, in row order), objective coefficient and bounds. A class of c
    such columns with bounds [l, u] becomes its first column, with bounds
    [c·ceil(l), c·floor(u)]: c integers in [l, u] sum to exactly the
    integers of that range, so the merged form has the same optima and an
    equivalent LP relaxation. The rows and row bounds are unchanged.
    Columns are grouped by sorting a signature (a hash of the entries,
    their count, objective and bounds) and then comparing each column's
    entries with those of the first column of its group, all in numpy.
    """
    cand = np.flatnonzero(sf.integral)
    if cand.size < 2:
        return sf, lambda x: x
    colptr, row_of, values = _to_csc(sf.rows, sf.ncols)
    counts = np.diff(colptr)
    # Each entry's hash is the splitmix64 finalizer of its row and value
    # bits; a column's hash is the wrapping sum over its entries.
    mix = row_of.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) ^ values.view(np.uint64)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        mix ^= mix >> np.uint64(shift)
        mix *= np.uint64(factor)
    mix ^= mix >> np.uint64(31)
    summed = np.zeros(mix.size + 1, dtype=np.uint64)
    np.cumsum(mix, out=summed[1:])
    digest = summed[colptr[1:]] - summed[colptr[:-1]]
    keys = [sf.upper[cand], sf.lower[cand], sf.obj[cand], counts[cand], digest[cand]]
    order = np.lexsort(keys)
    cols = cand[order]
    same = np.ones(cols.size - 1, dtype=bool)
    for key in keys:
        ordered = key[order]
        same &= ordered[1:] == ordered[:-1]
    head = np.flatnonzero(np.concatenate(([True], ~same)))
    first = cols[np.repeat(head, np.diff(np.append(head, cols.size)))]
    members, first = cols[first != cols], first[first != cols]
    # The signature matched; compare the entries themselves. A column
    # whose entries differ from its group's first (a hash collision) is
    # left on its own.
    sizes = counts[members]
    offset = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    mine = np.repeat(colptr[members], sizes) + offset
    theirs = np.repeat(colptr[first], sizes) + offset
    differs = (row_of[mine] != row_of[theirs]) | (values[mine] != values[theirs])
    owner = np.repeat(np.arange(members.size), sizes)
    equal = np.bincount(owner, weights=differs, minlength=members.size) == 0
    if not equal.any():
        return sf, lambda x: x
    rep = np.arange(sf.ncols)
    rep[members[equal]] = first[equal]
    kept = rep == np.arange(sf.ncols)
    column = np.cumsum(kept) - 1
    group = column[rep]
    size = np.bincount(group)
    lower, upper = sf.lower[kept], sf.upper[kept]
    grouped = size > 1
    low, high = np.ceil(sf.lower), np.floor(sf.upper)
    lower[grouped] = size[grouped] * low[kept][grouped]
    upper[grouped] = size[grouped] * high[kept][grouped]
    indptr, indices, data = _entries_where(sf.rows, kept[sf.rows[1]])
    merged = replace(
        sf,
        lower=lower,
        upper=upper,
        integral=sf.integral[kept],
        obj=sf.obj[kept],
        rows=(indptr, column[indices].astype(np.int32), data),
    )
    # The columns of merged classes, by class and then index, each with
    # its class's size, its place in the class and its width u - l.
    spread_cols = np.flatnonzero(grouped[group])
    spread_cols = spread_cols[np.argsort(group[spread_cols], kind="stable")]
    classes = group[spread_cols]
    count = size[classes]
    rank = np.arange(spread_cols.size) - np.searchsorted(classes, classes)
    width = high[spread_cols] - low[spread_cols]

    def spread(x):
        """The point of `sf` whose columns outside merged classes take
        their merged column's value, and whose classes give each column
        `ceil(l)` and fill the rest of the class's value into its columns
        in ascending order, each up to `floor(u)`."""
        point = x[group]
        rest = point[spread_cols] - count * low[spread_cols] - rank * width
        point[spread_cols] = low[spread_cols] + np.clip(rest, 0, width)
        return point

    return merged, spread


def _propagate(sf: _StandardForm, lower, upper) -> bool:
    """Feasibility-based bound tightening (the allowed presolve).

    Works on the rows in the one form `a·x <= b` of `propagation_data`:
    a `>=` row is negated and an `=` row appears both ways, so the minimum
    activity of each row is the only activity bound needed, and its slack
    `b - minact` bounds every variable of the row. A positive `a_j` caps
    `x_j` from above at `lower_j + slack / a_j`, a negative one from below
    at `upper_j + slack / a_j`. Negating a row is exact in floating point,
    so this derives bit for bit the bounds that the maximum activity of the
    `>=` rows would. Bounds of integral variables are rounded to integers
    (`floor(upper + 1e-6)`, `ceil(lower - 1e-6)`), and passes repeat until
    a fixpoint, for at most 50 passes. Tightens `lower`/`upper` in place;
    returns False when the node is proven infeasible, leaving the bounds
    the last completed pass left. Preserves every integral-feasible point,
    so node dual bounds stay valid.

    A pass holds the bounds as `[upper; lower]` for the product and the
    gather, and as the signed `[upper; -lower]`, on which every cap is an
    upper cap, for the rest: one product gives every activity, one
    division and one gather every cap, one `np.minimum.reduceat` the
    tightest cap of each bound and one masked `floor` every rounding,
    where the positive and negative entries apart would take two of each.
    The bounds are bit for bit those of the two-sided pass, signed zeros
    included. Negation is exact. A cap is computed as `bound + slack / a`,
    as the two-sided pass does, and a lower bound's cap is negated after
    the sum: `(-u) - slack / a` would be +0 where `-(u + slack / a)` is -0.
    `np.minimum` and `np.maximum` break ties between +0 and -0 alike, so
    `min(-p, -q)` is `-max(p, q)`. A lower bound is rounded as `-floor(-(l -
    1e-6))`, which is `ceil(l - 1e-6)`; `floor(-l + 1e-6)` would give -0
    where that is +0, at `l = 1e-6`.
    """
    if sf.nrows == 0:
        # Nothing to propagate, but the integral bounds are rounded as a
        # pass rounds them; only bounds that tighten are written.
        integral = sf.integral
        low, high = np.ceil(lower - 1e-6), np.floor(upper + 1e-6)
        np.copyto(lower, low, where=integral & (low > lower))
        np.copyto(upper, high, where=integral & (high < upper))
        return not np.any(lower > upper + 1e-9)
    b, threshold, rows, caps, sign, offset, integral = sf.propagation_data
    if (lower > upper + _TOL).any():
        return False
    entry_rows, cols, coef, starts, targets, split = caps
    n, r = sf.ncols, b.size
    indptr, indices, data = rows
    matvec = _scipy_extension("sparse._sparsetools").csr_matvec
    natural = np.concatenate((upper, lower))
    bounds = natural * sign
    feasible = True
    for _ in range(50):
        act = np.zeros(2 * r)
        matvec(2 * r, 2 * n, indptr, indices, data, natural, act)
        minact = act[:r] + act[r:]
        if (minact > threshold).any():
            feasible = False
            break
        cand = (b - minact)[entry_rows]
        cand /= coef
        cand += natural[cols]
        np.negative(cand[:split], out=cand[:split])
        new = bounds.copy()
        # A form with no entries has no caps; `reduceat` needs at least one.
        if starts.size:
            new[targets] = np.minimum(new[targets], np.minimum.reduceat(cand, starts))
        rounded = new * sign
        rounded += offset
        rounded *= sign
        np.floor(rounded, out=new, where=integral)
        np.minimum(bounds, new, out=new)
        new_natural = new * sign
        if (new_natural[n:] > new_natural[:n] + 1e-9).any():
            feasible = False
            break
        changed = (bounds - new).max() > 1e-9
        bounds, natural = new, new_natural
        if not changed:
            break
    upper[:] = natural[:n]
    lower[:] = natural[n:]
    return feasible


def _scipy_extension(name: str):
    """The compiled module `scipy.<name>`, loaded straight from its file
    under its canonical name; raises ImportError when this scipy has none.

    Importing it the usual way first runs the package `__init__` of
    `scipy` and of its subpackage, which import far more than the solver
    uses and dominate the start-up of a process that answers one small
    question. A later normal import finds the module in `sys.modules` and
    reuses it, but binds it as no attribute of its package: after a solve,
    `from scipy.sparse import _sparsetools` works and `import scipy.sparse;
    scipy.sparse._sparsetools` raises AttributeError.
    """
    qualified = f"scipy.{name}"
    module = sys.modules.get(qualified)
    if module is not None:
        return module
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("the solver requires scipy")
    *package, stem = name.split(".")
    folder = Path(spec.origin).parent.joinpath(*package)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"{stem}{suffix}"
        if not path.is_file():
            continue
        loader = importlib.machinery.ExtensionFileLoader(qualified, str(path))
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(qualified, path, loader=loader)
        )
        loader.exec_module(module)
        sys.modules[qualified] = module
        return module
    raise ImportError(f"this scipy has no compiled {qualified}")


def _lp_solver(sf: _StandardForm):
    """The LP relaxation of `sf` under given column bounds, as a function
    lp(lower, upper) -> ("optimal", x, value) in the internal max sense,
    or ("infeasible", None, None).

    One HiGHS instance gets the model once; every call changes the column
    bounds and re-runs, so the dual simplex starts from the last basis.
    Presolve is off, for the reason the module docstring gives.
    """
    core = _scipy_extension("optimize._highspy._core")
    indptr, indices, data = sf.rows
    highs = core._Highs()
    _set_option(highs, "output_flag", False)
    _set_option(highs, "presolve", "off")
    status = highs.passModel(
        sf.ncols,
        sf.nrows,
        data.size,
        int(core.MatrixFormat.kRowwise),
        int(core.ObjSense.kMinimize),
        0.0,
        -sf.obj,
        sf.lower,
        sf.upper,
        sf.row_lower,
        sf.row_upper,
        indptr,
        indices,
        data,
        np.zeros(sf.ncols, dtype=np.int32),
    )
    if status == core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    columns = np.arange(sf.ncols, dtype=np.int32)
    optimal, infeasible = core.HighsModelStatus.kOptimal, core.HighsModelStatus.kInfeasible

    def lp(lower, upper):
        highs.changeColsBounds(sf.ncols, columns, lower, upper)
        highs.run()
        status = highs.getModelStatus()
        if status == optimal:
            point = np.clip(np.asarray(highs.getSolution().col_value), lower, upper)
            return "optimal", point, float(sf.obj @ point)
        if status == infeasible:
            return "infeasible", None, None
        raise SolverError(f"LP backend failed with status {highs.modelStatusToString(status)}")

    return lp


def _set_option(highs, name, value):
    """Set one option of the HiGHS instance `highs`; raises SolverError
    when HiGHS rejects the name or the value."""
    core = _scipy_extension("optimize._highspy._core")
    if highs.setOptionValue(name, value) == core.HighsStatus.kError:
        raise SolverError(f"HiGHS rejected the option {name} = {value!r}")


def solve_lp_relaxation(model: LinearProgram) -> LpOutcome:
    """Continuous relaxation of the model over its variable boxes.

    Unboundedness cannot occur because all variables carry finite boxes.
    """
    sf = _standard_form(model)
    status, x, value = _lp_solver(sf)(sf.lower, sf.upper)
    if status != "optimal":
        return LpOutcome("infeasible", None, None)
    point = dict(zip(model._names, x.tolist()))
    return LpOutcome("optimal", sf.sign * value, point)


def _objective_is_integral(coefs, integral) -> bool:
    """Whether the objective with coefficients `coefs` takes only integral
    values at integral points: `integral[k]` tells whether the column of
    term k is integral; each must be, and each coefficient must be a
    `Fraction` with denominator 1 or a number `c` with `float(c) ==
    int(c)`, which every `int` of magnitude at most 2**53 is."""
    if not integral.all():
        return False
    whole = set(map(type, coefs)) <= {int}
    if whole and -(2**53) <= min(coefs, default=0) and max(coefs, default=0) <= 2**53:
        return True
    for coef in coefs:
        if isinstance(coef, Fraction):
            if coef.denominator != 1:
                return False
        elif float(coef) != int(coef):
            return False
    return True


def solve(model: LinearProgram, config: Optional[SolverConfig] = None) -> SolveResult:
    """Branch and bound to proven optimality within the configured
    tolerances, or a limit status. See the module docstring for the
    deterministic search rules."""
    config = config or SolverConfig()
    start = time.perf_counter()
    original = _standard_form(model)
    sf, spread = _merge_columns(original)
    lp = _lp_solver(sf)
    int_idx = np.nonzero(sf.integral)[0]
    integral_obj = sf.integral_objective
    obj_support = sf.obj[int_idx] != 0

    nodes = 0
    incumbent_vec = None
    incumbent_val = -np.inf

    def cutoff():
        # -inf until the first incumbent, so nothing is cut off before it.
        if integral_obj:
            return incumbent_val + 1.0 - 1e-9
        return incumbent_val + OPTIMALITY_TOL

    def try_incumbent(x):
        nonlocal incumbent_vec, incumbent_val
        rounded = x.copy()
        rounded[int_idx] = np.round(rounded[int_idx])
        np.clip(rounded, sf.lower, sf.upper, out=rounded)
        if not sf.feasible_point(rounded, FEASIBILITY_TOL):
            return False
        value = float(sf.obj @ rounded)
        if value > incumbent_val + 1e-9:
            incumbent_vec = rounded
            incumbent_val = value
        return True

    def fixed(bounds, idx, values):
        """Copies of `bounds` with `idx` fixed to `values` clipped into their
        boxes, then propagated; None when propagation proves them empty."""
        lo, hi = bounds[0].copy(), bounds[1].copy()
        values = np.clip(values, lo[idx], hi[idx])
        lo[idx] = values
        hi[idx] = values
        return (lo, hi) if _propagate(sf, lo, hi) else None

    def dive(lower, upper, x):
        """Fix-and-propagate diving. Each round fixes the near-integral
        objective variables (these drive the bound), trial-fixes the other
        near-integral ones (indicator values can legitimately disagree
        with a fractional point, so conflicts are dropped), then fixes the
        most fractional variable with a one-step backtrack, propagates,
        and re-solves. Pure primal heuristic; node bounds are untouched.
        """
        bounds = (lower, upper)
        point = x
        for _ in range(12):
            rounded = np.round(point[int_idx])
            dist = np.abs(point[int_idx] - rounded)
            near = dist <= INTEGRALITY_TOL
            pinned = near & obj_support
            bounds = fixed(bounds, int_idx[pinned], rounded[pinned])
            if bounds is None:
                return
            rest = near & ~obj_support
            if rest.any():
                bounds = fixed(bounds, int_idx[rest], rounded[rest]) or bounds
            if not near.all():
                var = int(int_idx[~near][np.argmax(dist[~near])])
                down, up = np.floor(point[var]), np.ceil(point[var])
                value = np.clip(np.round(point[var]), bounds[0][var], bounds[1][var])
                other = up if value == down else down
                bounds = fixed(bounds, var, value) or fixed(bounds, var, other)
                if bounds is None:
                    return
            status, px, _ = lp(*bounds)
            if status != "optimal":
                return
            if try_incumbent(px):
                return
            dist_after = np.abs(px[int_idx] - np.round(px[int_idx]))
            if not np.any(dist_after > INTEGRALITY_TOL):
                return
            point = px

    heap = []
    sequence = 0

    def expand(lower, upper, depth):
        """Tighten bounds, solve the node LP; record an incumbent or push
        for branching."""
        nonlocal nodes, sequence
        nodes += 1
        if not _propagate(sf, lower, upper):
            return
        status, x, value = lp(lower, upper)
        if status != "optimal":
            return
        if value <= cutoff():
            return
        dist = np.abs(x[int_idx] - np.round(x[int_idx]))
        fractional = dist > INTEGRALITY_TOL
        if not fractional.any():
            if try_incumbent(x):
                return
            # Near-integral, yet the rounded point breaks a row: the node
            # may still hold feasible points, so branch on the largest
            # rounding error instead of dropping it.
            fractional = dist > 0
            if not fractional.any():
                raise SolverError("an integral LP point fails the exact row check")
        elif not try_incumbent(x) and value > incumbent_val + 1e-9:
            dive(lower, upper, x)
        if value <= cutoff():
            return
        scores = np.full(sf.ncols, -np.inf)
        scores[int_idx[fractional]] = dist[fractional]
        branch_var = int(np.argmax(scores))
        branch_val = float(x[branch_var])
        sequence += 1
        heapq.heappush(
            heap, (-value, -depth, sequence, lower, upper, branch_var, branch_val)
        )

    def limit_bound():
        """The best bound of a limit stop, in the model's sense. For an
        integral objective no integral point beats floor(best + 1e-9), the
        slack `cutoff()` prunes with, so that is reported, as an int."""
        best = max(incumbent_val, -heap[0][0]) if heap else incumbent_val
        if integral_obj:
            return int(sf.sign) * math.floor(best + 1e-9)
        return sf.sign * best

    def finish(status):
        wall = time.perf_counter() - start
        if incumbent_vec is None:
            bound = None if status == "Infeasible" else limit_bound()
            return SolveResult(status, None, None, bound, nodes, wall)
        point = spread(incumbent_vec)
        values = np.empty(original.ncols, dtype=object)
        values[:] = point.tolist()
        values[original.integral] = np.rint(point[original.integral]).astype(np.int64).tolist()
        assignment = Assignment(dict(zip(model._names, values.tolist())))
        report = check_assignment(
            model, assignment, FEASIBILITY_TOL, INTEGRALITY_TOL
        )
        if not report.ok:
            raise SolverError("incumbent failed the exact feasibility recheck")
        bound = report.objective if status == "Optimal" else limit_bound()
        return SolveResult(status, assignment, report.objective, bound, nodes, wall)

    expand(sf.lower.copy(), sf.upper.copy(), 0)
    while heap:
        if config.time_limit is not None and time.perf_counter() - start > config.time_limit:
            return finish("TimeLimit")
        # A pop expands two nodes: stop before one would pass the limit.
        if config.node_limit is not None and nodes + 2 > config.node_limit:
            return finish("NodeLimit")
        neg_value, neg_depth, _, lower, upper, branch_var, branch_val = heapq.heappop(heap)
        if -neg_value <= cutoff():
            continue
        depth = -neg_depth
        floor = np.floor(branch_val)
        down_lower, down_upper = lower.copy(), upper.copy()
        down_upper[branch_var] = min(down_upper[branch_var], floor)
        expand(down_lower, down_upper, depth + 1)
        up_lower, up_upper = lower, upper
        up_lower[branch_var] = max(up_lower[branch_var], floor + 1.0)
        expand(up_lower, up_upper, depth + 1)
    return finish("Optimal" if incumbent_vec is not None else "Infeasible")
