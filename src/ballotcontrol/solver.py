"""Deterministic exact solver for the control programs.

Every LP relaxation of one `solve()` goes to a single HiGHS instance: the
model is passed once, and each node, dive step and probe only changes the
column bounds and re-runs the dual simplex from the previous basis. The
binding is scipy's private `scipy.optimize._highspy._core`, loaded directly
so that a fresh process does not pay for importing all of `scipy.optimize`;
when it is missing, each LP falls back to a cold `scipy.optimize.linprog`.
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
rounded point, and the final incumbent is re-verified with
`check_assignment` at `FEASIBILITY_TOL` and `INTEGRALITY_TOL` before it is
returned.
"""

from __future__ import annotations

import heapq
import importlib.machinery
import importlib.util
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from .ilp import Assignment, LinearProgram, check_assignment


class SolverError(RuntimeError):
    """Internal solver failure (iteration blowup, backend error)."""


@dataclass(frozen=True)
class SolverConfig:
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node limit must be positive")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time limit must be positive")


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


class _StandardForm:
    """Arrays shared by every LP solve of one model.

    The rows are one CSR `matrix` with `row_lower <= matrix @ x <= row_upper`,
    where a side the row does not bound is infinite: a `<=` row has
    `row_lower = -inf`, a `>=` row `row_upper = +inf`, and an `=` row its
    right-hand side on both. HiGHS gets the rows in this two-sided form;
    `le_rows` writes them once more in the one-sided form `A @ x <= b` that
    propagation and the `linprog` fallback use. The columns have finite
    boxes `lower`/`upper`, and `obj` is the objective, internally always
    maximized.
    """

    def __init__(self, model: LinearProgram):
        from scipy.sparse import csr_matrix

        self.names = [v.name for v in model.variables]
        self.ncols = len(self.names)
        if self.ncols == 0:
            raise ValueError("model has no variables")
        index = {name: i for i, name in enumerate(self.names)}
        self.lower = np.array([float(v.lower) for v in model.variables])
        self.upper = np.array([float(v.upper) for v in model.variables])
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("the solver requires finite variable bounds")
        self.integral = np.array([v.is_integral for v in model.variables], dtype=bool)
        self.sign = 1.0 if model.objective_sense == "max" else -1.0
        obj = np.zeros(self.ncols)
        for name, coef in model.objective:
            obj[index[name]] += float(coef)
        self.obj = self.sign * obj
        rows = model.constraints
        self.nrows = len(rows)
        terms = [term for c in rows for term in c.terms]
        self.matrix = csr_matrix(
            (
                np.fromiter((coef for _, coef in terms), float, len(terms)),
                np.fromiter((index[name] for name, _ in terms), np.int64, len(terms)),
                np.cumsum([0] + [len(c.terms) for c in rows]),
            ),
            shape=(self.nrows, self.ncols),
        )
        self.matrix.eliminate_zeros()
        bound = np.array([float(c.rhs) for c in rows])
        self.row_lower = np.where([c.sense != "<=" for c in rows], bound, -np.inf)
        self.row_upper = np.where([c.sense != ">=" for c in rows], bound, np.inf)
        self._prop = None

    def feasible_point(self, x: np.ndarray, tol: float) -> bool:
        acts = self.matrix @ x
        return not (
            np.any(acts > self.row_upper + tol) or np.any(acts < self.row_lower - tol)
        )

    def le_rows(self):
        """The rows as `A @ x <= b`: `[matrix[bounded above]; -matrix[bounded
        below]]` with `b = [row_upper; -row_lower]` on the same rows, so a
        `>=` row is negated and an `=` row appears both ways."""
        from scipy.sparse import vstack

        above = np.isfinite(self.row_upper)
        below = np.isfinite(self.row_lower)
        rows = vstack((self.matrix[above], -self.matrix[below]), format="csr")
        return rows, np.concatenate((self.row_upper[above], -self.row_lower[below]))

    def propagation_data(self):
        """`le_rows` split for `_propagate`: the right-hand side, the
        positive and the negative entries as two matrices of the same
        shape, and the positive and the negative entries grouped by
        column."""
        if self._prop is None:
            matrix, b_ub = self.le_rows()
            nnz_rows = np.repeat(
                np.arange(matrix.shape[0], dtype=np.int64), np.diff(matrix.indptr)
            )
            nnz_cols = matrix.indices.astype(np.int64)
            pos = matrix.data > 0
            pos_matrix = matrix.copy()
            pos_matrix.data = np.where(pos, matrix.data, 0.0)
            neg_matrix = matrix.copy()
            neg_matrix.data = np.where(pos, 0.0, matrix.data)

            def grouped(sel):
                # entries sorted by column so per-pass candidate bounds can
                # use segment reductions instead of slow scatter-min
                idx = np.nonzero(sel)[0]
                idx = idx[np.argsort(nnz_cols[idx], kind="stable")]
                cols = nnz_cols[idx]
                starts = idx
                if idx.size:
                    starts = np.nonzero(np.r_[True, cols[1:] != cols[:-1]])[0]
                return nnz_rows[idx], cols, matrix.data[idx], starts, cols[starts]

            self._prop = (b_ub, pos_matrix, neg_matrix, grouped(pos), grouped(~pos))
        return self._prop


def _propagate(sf: _StandardForm, lower, upper) -> bool:
    """Feasibility-based bound tightening (the allowed presolve).

    Works on the rows in the one form `a·x <= b` (`_StandardForm.le_rows`):
    a `>=` row is negated and an `=` row appears both ways, so the minimum
    activity of each row is the only activity bound needed, and its slack
    `b - minact` bounds every variable of the row. A positive `a_j` caps
    `x_j` from above at `lower_j + slack / a_j`, a negative one from below
    at `upper_j + slack / a_j`. Negating a row is exact in floating point,
    so this derives bit for bit the bounds that the maximum activity of the
    `>=` rows would. Bounds of integral variables are rounded to integers,
    and passes repeat until a fixpoint, for at most 50 passes. Tightens
    `lower`/`upper` in place; returns False when the node is proven
    infeasible. Preserves every integral-feasible point, so node dual
    bounds stay valid.
    """
    if sf.nrows == 0:
        return not np.any(lower > upper + _TOL)
    b_ub, pos_matrix, neg_matrix, caps_above, caps_below = sf.propagation_data()
    integral = sf.integral
    if np.any(lower > upper + _TOL):
        return False
    for _ in range(50):
        minact = pos_matrix @ lower + neg_matrix @ upper
        if np.any(minact > b_ub + 1e-7):
            return False
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
            return False
        changed = np.any(upper - new_upper > 1e-9) or np.any(new_lower - lower > 1e-9)
        upper[:] = new_upper
        lower[:] = new_lower
        if not changed:
            break
    return True


_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS binding, or None when this scipy has none.

    The extension is loaded straight from its file under its canonical
    name, because `from scipy.optimize._highspy import _core` first runs
    `scipy.optimize`'s package `__init__`, which imports every optimizer
    and dominates the start-up of a process that answers one small
    question. A later `import scipy.optimize` finds the module in
    `sys.modules` and reuses it.
    """
    module = sys.modules.get(_HIGHS_MODULE)
    if module is not None:
        return module
    try:
        import scipy
    except ImportError:
        return None
    folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if not path.is_file():
            continue
        loader = importlib.machinery.ExtensionFileLoader(_HIGHS_MODULE, str(path))
        spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path, loader=loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        sys.modules[_HIGHS_MODULE] = module
        return module
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        return None
    return _core


def _lp_solver(sf: _StandardForm):
    """The LP relaxation of `sf` under given column bounds, as a function
    lp(lower, upper) -> ("optimal", x, value) in the internal max sense,
    or ("infeasible", None, None).

    One HiGHS instance gets the model once; every call changes the column
    bounds and re-runs, so the dual simplex starts from the last basis.
    """
    core = _load_highs()
    if core is None:
        return _lp_highs(sf)
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    matrix = sf.matrix.tocsc()
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    status = highs.passModel(
        sf.ncols,
        sf.nrows,
        matrix.nnz,
        int(core.MatrixFormat.kColwise),
        int(core.ObjSense.kMinimize),
        0.0,
        -sf.obj,
        sf.lower,
        sf.upper,
        sf.row_lower,
        sf.row_upper,
        matrix.indptr.astype(np.int32),
        matrix.indices.astype(np.int32),
        matrix.data,
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


def _lp_highs(sf: _StandardForm):
    """`_lp_solver` through a cold `scipy.optimize.linprog` per LP, on the
    rows of `_StandardForm.le_rows`, for a scipy without the HiGHS binding."""
    from scipy.optimize import linprog

    a_ub, b_ub = sf.le_rows()

    def lp(lower, upper):
        result = linprog(
            c=-sf.obj,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=np.column_stack((lower, upper)),
            method="highs",
        )
        if result.status == 0:
            point = np.clip(result.x, lower, upper)
            return "optimal", point, float(sf.obj @ point)
        if result.status == 2:
            return "infeasible", None, None
        raise SolverError(f"LP backend failed with status {result.status}: {result.message}")

    return lp


def solve_lp_relaxation(model: LinearProgram) -> LpOutcome:
    """Continuous relaxation of the model over its variable boxes.

    Unboundedness cannot occur because all variables carry finite boxes.
    """
    sf = _StandardForm(model)
    status, x, value = _lp_solver(sf)(sf.lower, sf.upper)
    if status != "optimal":
        return LpOutcome("infeasible", None, None)
    point = {name: float(v) for name, v in zip(sf.names, x)}
    return LpOutcome("optimal", sf.sign * value, point)


def _objective_is_integral(model: LinearProgram) -> bool:
    for name, coef in model.objective:
        if not model.variable(name).is_integral:
            return False
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
    sf = _StandardForm(model)
    lp = _lp_solver(sf)
    int_idx = np.nonzero(sf.integral)[0]
    integral_obj = _objective_is_integral(model)
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
        if int_idx.size:
            rounded[int_idx] = np.round(rounded[int_idx])
        np.clip(rounded, sf.lower, sf.upper, out=rounded)
        if not sf.feasible_point(rounded, FEASIBILITY_TOL):
            return False
        value = float(sf.obj @ rounded)
        if value > incumbent_val + 1e-9:
            incumbent_vec = rounded
            incumbent_val = value
        return True

    def _fix(lo, hi, idx, point):
        values = np.clip(np.round(point[idx]), lo[idx], hi[idx])
        lo[idx] = values
        hi[idx] = values

    def dive(lower, upper, x):
        """Fix-and-propagate diving. Each round fixes the near-integral
        objective variables (these drive the bound), trial-fixes the other
        near-integral ones (indicator values can legitimately disagree
        with a fractional point, so conflicts are dropped), then fixes the
        most fractional variable with a one-step backtrack, propagates,
        and re-solves. Pure primal heuristic; node bounds are untouched.
        """
        if not int_idx.size:
            return
        bounds_lo, bounds_hi = lower.copy(), upper.copy()
        point = x
        for _ in range(12):
            rounded = np.round(point[int_idx])
            dist = np.abs(point[int_idx] - rounded)
            near = dist <= INTEGRALITY_TOL
            _fix(bounds_lo, bounds_hi, int_idx[near & obj_support], point)
            if not _propagate(sf, bounds_lo, bounds_hi):
                return
            rest = int_idx[near & ~obj_support]
            if rest.size:
                trial_lo, trial_hi = bounds_lo.copy(), bounds_hi.copy()
                _fix(trial_lo, trial_hi, rest, point)
                if _propagate(sf, trial_lo, trial_hi):
                    bounds_lo, bounds_hi = trial_lo, trial_hi
            if not near.all():
                var = int(int_idx[~near][np.argmax(dist[~near])])
                value = float(np.round(point[var]))
                value = min(max(value, bounds_lo[var]), bounds_hi[var])
                trial_lo, trial_hi = bounds_lo.copy(), bounds_hi.copy()
                trial_lo[var] = value
                trial_hi[var] = value
                if not _propagate(sf, trial_lo, trial_hi):
                    other = np.ceil(point[var]) if value == np.floor(point[var]) else np.floor(point[var])
                    other = min(max(float(other), bounds_lo[var]), bounds_hi[var])
                    trial_lo, trial_hi = bounds_lo.copy(), bounds_hi.copy()
                    trial_lo[var] = other
                    trial_hi[var] = other
                    if not _propagate(sf, trial_lo, trial_hi):
                        return
                bounds_lo, bounds_hi = trial_lo, trial_hi
            status, px, _ = lp(bounds_lo, bounds_hi)
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

    def out_of_time():
        return config.time_limit is not None and time.perf_counter() - start > config.time_limit

    def best_bound():
        bound = incumbent_val
        if heap:
            bound = max(bound, -heap[0][0])
        return bound

    def limit_bound():
        """The best bound of a limit stop, in the model's sense. For an
        integral objective no integral point beats floor(best + 1e-9), the
        slack `cutoff()` prunes with, so that is reported, as an int."""
        if integral_obj:
            return int(sf.sign) * math.floor(best_bound() + 1e-9)
        return sf.sign * best_bound()

    def finish(status):
        wall = time.perf_counter() - start
        if incumbent_vec is None:
            bound = None if status == "Infeasible" else limit_bound()
            return SolveResult(status, None, None, bound, nodes, wall)
        values = {}
        for i, name in enumerate(sf.names):
            if sf.integral[i]:
                values[name] = int(round(incumbent_vec[i]))
            else:
                values[name] = float(incumbent_vec[i])
        assignment = Assignment(values)
        report = check_assignment(
            model, assignment, FEASIBILITY_TOL, INTEGRALITY_TOL
        )
        if not report.ok:
            raise SolverError("incumbent failed the exact feasibility recheck")
        bound = report.objective if status == "Optimal" else limit_bound()
        return SolveResult(status, assignment, report.objective, bound, nodes, wall)

    expand(sf.lower.copy(), sf.upper.copy(), 0)
    if not heap and incumbent_vec is None:
        # Root relaxation infeasible, or every integral point is cut off.
        return finish("Infeasible")

    while heap:
        if out_of_time():
            return finish("TimeLimit")
        if config.node_limit is not None and nodes >= config.node_limit:
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
