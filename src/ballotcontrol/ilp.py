"""Integer linear program representation with rational coefficients.

Models are built single-threaded through the LinearProgram methods and
treated as immutable afterwards. Coefficients, bounds, and right-hand
sides are plain Python numbers; encoders only produce integers, so
feasibility checks on rounded assignments are exact. Coefficients must be
finite and right-hand sides numbers (not NaN). A call that raises leaves
the model unchanged.

A model keeps its variables by column: each column's name, kind and
exact lower and upper bounds in plain lists, and the objective as its
columns and coefficients. Columns are declared in blocks that share a
kind and bounds (`add_variables`; `add_variable` declares one). It stores
its rows once, by term: each term's column in one int32 `array`, its
exact coefficient in one int64 `array` while every coefficient is a plain
`int` that fits, and in a list of the numbers as given from the first one
that is not. Rows come in two forms only: one at a time
as `(name, coef)` terms (`add_constraint`; an alternative block takes
rows of that form too) or as a block of CSR arrays over column indices
(`add_rows`). Its `row_table` compiles the rows into CSR arrays. The
solver, `check_assignment` and the exporters read these stores; the
`variables`, `objective` and `constraints` views build `Variable`,
`(name, coef)` and `LinearConstraint` items from them on each read, for
callers outside the library.

Text formats: a five-section LP dialect (Maximize/Minimize, Subject To,
Bounds, Binaries, Generals, End) that `parse_lp` reads back losslessly
for integer data, and classic fixed-field MPS with INTORG/INTEND markers
and LI/UI bound entries for general integers. Both writers assemble their
row sections from the row table with numpy: each distinct coefficient,
name and row label is formatted once, and the text is joined once.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from numbers import Integral
from typing import Mapping, Optional, Sequence, Union

import numpy as np

Number = Union[int, float, Fraction]

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

SENSES = ("<=", ">=", "=")


def _check_variable(name, kind, lower, upper) -> None:
    """Raise ValueError unless `kind` is known, a binary has bounds [0, 1]
    and `lower <= upper`, written so that a NaN bound fails. `name` only
    goes into the message."""
    if kind not in (BINARY, INTEGER, CONTINUOUS):
        raise ValueError(f"unknown variable kind {kind!r}")
    if kind == BINARY and (lower, upper) != (0, 1):
        raise ValueError("binary variables must have bounds [0, 1]")
    if not lower <= upper:
        raise ValueError(f"variable {name}: lower bound exceeds upper bound")


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str = CONTINUOUS
    lower: Number = 0
    upper: Number = 1

    def __post_init__(self):
        _check_variable(self.name, self.kind, self.lower, self.upper)

    @property
    def is_integral(self) -> bool:
        return self.kind in (BINARY, INTEGER)


def _violation(lhs: Number, sense: str, rhs: Number) -> Number:
    """How far `lhs sense rhs` is from holding; <= 0 means it holds."""
    if sense == "<=":
        return lhs - rhs
    if sense == ">=":
        return rhs - lhs
    return abs(lhs - rhs)


@dataclass(frozen=True)
class LinearConstraint:
    terms: tuple[tuple[str, Number], ...]
    sense: str
    rhs: Number
    tag: str = ""

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"unknown constraint sense {self.sense!r}")
        names = [name for name, _ in self.terms]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate variable in constraint {self.tag or self.terms}")

    def lhs_value(self, values: Mapping[str, Number]) -> Number:
        return sum(coef * values[name] for name, coef in self.terms)

    def violation(self, values: Mapping[str, Number]) -> Number:
        """How far the constraint is from holding; <= 0 means satisfied."""
        return _violation(self.lhs_value(values), self.sense, self.rhs)

    def satisfied(self, values: Mapping[str, Number], tol: Number = 0) -> bool:
        return self.violation(values) <= tol


@dataclass(frozen=True)
class Assignment:
    """Values for every variable of a model."""

    values: Mapping[str, Number]

    def __getitem__(self, name: str) -> Number:
        return self.values[name]


@dataclass(frozen=True)
class RowTable:
    """The terms of a model's rows, compiled from its row store into CSR
    arrays, in insertion order and each row's terms in their order: row i
    holds the columns `indices[indptr[i]:indptr[i + 1]]` (the variables'
    declaration indices) with the coefficients `coefs` over the same
    range. `indptr`
    and `indices` are int32. `coefs` is int64 when every coefficient is a
    plain `int` (not a `bool`) that fits, and otherwise float64, each
    entry `float(coef)`."""

    indptr: np.ndarray
    indices: np.ndarray
    coefs: np.ndarray


def _python_list(values) -> list:
    """`values` as a list, with a numpy array's numbers as Python numbers."""
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def _check_numbers(values, what, finite=True) -> None:
    """Raise ValueError if `values` holds a NaN or, with `finite`, an
    infinite number. Plain ints, and integer numpy arrays by their dtype,
    are not looked at one by one: only plain ints sum to a plain int."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biu":
        return
    if type(sum(values)) is int:
        return
    for value in values:
        if value != value or finite and abs(value) == math.inf:
            raise ValueError(f"{what} {value!r} is not {'finite' if finite else 'a number'}")


class LinearProgram:
    """Variables with bounds and integrality, linear constraints, objective.

    The variables are kept by column, in declaration order: each column's
    name (`_index` maps it back to the column), kind and exact lower and
    upper bounds in plain lists, and the objective as its columns and
    coefficients. `add_variables` declares a block of columns that share a
    kind and bounds; `add_variable` declares one. The rows are kept by
    term (see the module docstring). `variables`, `objective` and
    `constraints` are views rebuilt from the store on each read."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.objective_sense = "max"
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self._kinds: list[str] = []
        self._lower: list[Number] = []
        self._upper: list[Number] = []
        self._obj_cols: list[int] = []
        self._obj_coefs: list[Number] = []
        # The rows, in insertion order: each term's column and coefficient
        # as given, and each row's end offset into those, sense, rhs and tag.
        self._cols = array("i")
        self._coefs: Union[array, list[Number]] = array("q")
        self._ends: list[int] = []
        self._senses: list[str] = []
        self._rhs: list[Number] = []
        self._tags: list[str] = []
        self._rows: Optional[RowTable] = None

    def add_variables(self, names, kind=CONTINUOUS, lower=0, upper=1) -> None:
        """Declare one column per name, in order, each of kind `kind` with
        bounds [lower, upper]. The kind and bounds are checked once for the
        block, as `Variable` checks them, and the columns are appended only
        after every check passes."""
        names = list(names)
        _check_variable(names[0] if names else "", kind, lower, upper)
        start = len(self._names)
        index = dict(zip(names, range(start, start + len(names))))
        if len(index) != len(names) or not index.keys().isdisjoint(self._index):
            # The first name declared before, in the model or in this block.
            seen = set(self._index)
            taken = next(name for name in names if name in seen or seen.add(name))
            raise ValueError(f"variable {taken!r} already declared")
        self._index.update(index)
        self._names += names
        self._kinds += [kind] * len(names)
        self._lower += [lower] * len(names)
        self._upper += [upper] * len(names)
        self._rows = None

    def add_variable(self, name, kind=CONTINUOUS, lower=0, upper=1) -> str:
        self.add_variables((name,), kind, lower, upper)
        return name

    @property
    def variables(self) -> tuple[Variable, ...]:
        """The columns as `Variable`s, rebuilt from the store on each read."""
        return tuple(map(Variable, self._names, self._kinds, self._lower, self._upper))

    def variable(self, name: str) -> Variable:
        j = self._index[name]
        return Variable(name, self._kinds[j], self._lower[j], self._upper[j])

    @property
    def objective(self) -> tuple[tuple[str, Number], ...]:
        """The objective as `(name, coef)` terms, rebuilt on each read."""
        return tuple(zip(map(self._names.__getitem__, self._obj_cols), self._obj_coefs))

    def _resolve(self, terms, rhs, tag):
        """The columns and coefficients of the row `terms` with right-hand
        side `rhs`, checked as `add_constraint` checks them."""
        index = self._index
        try:
            cols = [index[name] for name, _ in terms]
        except KeyError as missing:
            message = f"constraint {tag!r} references undeclared variable {missing.args[0]!r}"
            raise ValueError(message) from None
        if len(set(cols)) != len(cols):
            raise ValueError(f"duplicate variable in constraint {tag or terms}")
        coefs = [coef for _, coef in terms]
        _check_numbers(coefs, "coefficient")
        _check_numbers((rhs,), "right-hand side", finite=False)
        return cols, coefs

    def add_constraint(self, terms, sense, rhs, tag="") -> None:
        if sense not in SENSES:
            raise ValueError(f"unknown constraint sense {sense!r}")
        cols, coefs = self._resolve(tuple(terms), rhs, tag)
        self._cols.fromlist(cols)
        self._append_coefs(coefs)
        self._ends.append(len(self._cols))
        self._senses.append(sense)
        self._rhs.append(rhs)
        self._tags.append(tag)
        self._rows = None

    def add_rows(self, indptr, cols, coefs, senses, rhs, tags) -> None:
        """Append a block of rows given as CSR arrays over declared column
        indices: row i holds the columns `cols[indptr[i]:indptr[i + 1]]`
        with the coefficients `coefs` over the same range, and `senses[i]`,
        `rhs[i]` and `tags[i]`. The rows are checked as `add_constraint`
        checks one, and appended only after every check passes: the
        columns as int32 bytes, with no work per declared column or per
        term in Python, and an integer coefficient array that fits int64
        as int64 bytes; the other numbers as Python numbers."""
        arrays = []
        for name, values in (("indptr", indptr), ("cols", cols)):
            values = np.asarray(values)
            if values.ndim != 1 or (values.size and values.dtype.kind not in "iu"):
                raise ValueError(f"{name} must be a one-dimensional integer array")
            arrays.append(values if values.dtype.kind == "i" else values.astype(np.int64))
        indptr, cols = arrays
        # A numpy array of coefficients becomes a list only once it is appended.
        coefs = coefs if isinstance(coefs, np.ndarray) else list(coefs)
        rhs, senses, tags = _python_list(rhs), list(senses), list(tags)
        lengths = np.diff(indptr)
        if not indptr.size or indptr[0] != 0 or (lengths < 0).any():
            raise ValueError("indptr must start at 0 and never decrease")
        nrows = lengths.size
        if not int(indptr[-1]) == cols.size == len(coefs):
            raise ValueError("indptr must end at the number of columns and coefficients")
        if not len(senses) == len(rhs) == len(tags) == nrows:
            raise ValueError("one sense, right-hand side and tag per row required")
        _check_numbers(coefs, "coefficient")
        _check_numbers(rhs, "right-hand side", finite=False)
        unknown = set(senses).difference(SENSES)
        if unknown:
            raise ValueError(f"unknown constraint sense {min(unknown, key=str)!r}")
        ncols = len(self._names)
        if cols.size and not 0 <= cols.min() <= cols.max() < ncols:
            raise ValueError(f"column index outside 0..{ncols - 1}")
        keys = np.repeat(np.arange(nrows, dtype=np.int64) * ncols, lengths)
        keys += cols
        keys.sort()
        repeats = np.flatnonzero(keys[1:] == keys[:-1])
        if repeats.size:
            row = int(keys[repeats[0]]) // ncols
            raise ValueError(f"duplicate variable in constraint {tags[row] or row}")
        del keys
        self._ends += (indptr[1:].astype(np.int64) + len(self._cols)).tolist()
        self._cols.frombytes(cols.astype(np.intc).tobytes())  # the C int of array("i")
        self._append_coefs(coefs)
        self._senses += senses
        self._rhs += rhs
        self._tags += tags
        self._rows = None

    def _append_coefs(self, coefs) -> None:
        """Append checked coefficients to the store (see the module
        docstring), turning it into a list at the first coefficient that is
        not a plain `int` fitting int64: a bool, a float, a numpy scalar."""
        if isinstance(self._coefs, array):
            kind = coefs.dtype.kind if isinstance(coefs, np.ndarray) else None
            if kind == "i" or (kind == "u" and coefs.max(initial=0) < 2**63):
                self._coefs.frombytes(coefs.astype(np.int64).tobytes())
                return
            coefs = _python_list(coefs)
            if set(map(type, coefs)) <= {int}:
                try:
                    self._coefs.fromlist(coefs)  # unchanged if one overflows
                    return
                except OverflowError:
                    pass
            self._coefs = self._coefs.tolist()
        self._coefs += _python_list(coefs)

    def _row_items(self):
        """Each row as (columns, coefficients, sense, rhs, tag)."""
        cols, coefs, ends = self._cols, self._coefs, self._ends
        for start, end, *row in zip([0, *ends], ends, self._senses, self._rhs, self._tags):
            yield (cols[start:end], coefs[start:end], *row)

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        """The rows as `LinearConstraint`s, rebuilt from the store on each read."""
        names = self._names
        return tuple(
            LinearConstraint(tuple(zip(map(names.__getitem__, cols), coefs)), sense, rhs, tag)
            for cols, coefs, sense, rhs, tag in self._row_items()
        )

    def row_table(self) -> RowTable:
        """The rows as a `RowTable`, built from the store on the first call
        and kept until `add_variables`, `add_constraint` or `add_rows`
        changes the model."""
        if self._rows is None:
            indptr = np.array([0, *self._ends], dtype=np.int32)
            # A copy of the column buffer, which later rows may still grow.
            indices = np.array(self._cols, dtype=np.int32)
            coefs = self._coefs
            # A list store holds a coefficient that is not a plain int64.
            if isinstance(coefs, array):
                data = np.array(coefs, dtype=np.int64)
            else:
                data = np.fromiter(coefs, float, len(coefs))
            self._rows = RowTable(indptr, indices, data)
        return self._rows

    def set_objective(self, sense, terms):
        if sense not in ("max", "min"):
            raise ValueError(f"unknown objective sense {sense!r}")
        terms = tuple(terms)
        index = self._index
        try:
            cols = [index[name] for name, _ in terms]
        except KeyError as missing:
            message = f"objective references undeclared variable {missing.args[0]!r}"
            raise ValueError(message) from None
        if len(set(cols)) != len(cols):
            raise ValueError("duplicate variable in objective")
        coefs = [coef for _, coef in terms]
        _check_numbers(coefs, "objective coefficient")
        self.objective_sense = sense
        self._obj_cols = cols
        self._obj_coefs = coefs

    def objective_value(self, values: Mapping[str, Number]) -> Number:
        names = self._names
        return sum(coef * values[names[j]] for j, coef in zip(self._obj_cols, self._obj_coefs))

    def expression_box_max(self, terms) -> Number:
        """Largest value the expression can take over the variable box."""
        total = 0
        for name, coef in terms:
            j = self._index[name]
            total += coef * (self._upper[j] if coef > 0 else self._lower[j])
        return total


def add_alternative_block(
    model: LinearProgram,
    alternatives: Sequence,
    names: Sequence[str],
    pick_tag: str,
    big_m: Optional[Number] = None,
) -> list[str]:
    """Install "at least one of these alternatives holds" as linear rows.

    Each alternative is a non-empty sequence of rows `(terms, rhs, tag)`,
    each read as `terms <= rhs`, that must hold together; a fresh binary
    indicator y, named by `names` in order, is declared per alternative,
    each row becomes `terms + M*y <= rhs + M`, and the row `sum(y) >= 1`,
    tagged `pick_tag`, forces one indicator on. With `big_m=None` every row
    gets the smallest bound that is valid over the variable box; an
    explicit big_m is validated against that bound. Every row is checked
    before anything is declared. Returns the indicator names.
    """
    groups = list(alternatives)
    if not groups:
        raise ValueError("alternative block needs at least one alternative")
    if not all(groups):
        raise ValueError("empty alternative group")
    if len(names) != len(groups):
        raise ValueError("one indicator name per alternative required")
    indicator_names = list(names)
    if len(set(indicator_names).difference(model._index)) != len(indicator_names):
        raise ValueError(f"indicator names must be distinct and new: {indicator_names}")
    rows = []
    for y, group in zip(indicator_names, groups):
        for terms, rhs, tag in group:
            terms = tuple(terms)
            needed = model.expression_box_max(terms) - rhs
            model._resolve(terms, rhs, tag)
            if big_m is not None and big_m < needed:
                raise ValueError(
                    f"big-M {big_m} too small for alternative {tag!r} (needs at least {needed})"
                )
            m_value = max(needed if big_m is None else big_m, 0)
            if not m_value < math.inf:
                raise ValueError(f"alternative {tag!r} has no finite big-M")
            rows.append((terms + ((y, m_value),), rhs + m_value, tag))
    model.add_variables(indicator_names, BINARY)
    for terms, rhs, tag in rows:
        model.add_constraint(terms, "<=", rhs, tag)
    model.add_constraint(tuple((y, 1) for y in indicator_names), ">=", 1, tag=pick_tag)
    return indicator_names


@dataclass(frozen=True)
class CheckReport:
    """Outcome of checking an assignment against a model: the objective
    value, the violated rows as (index, tag, amount), the integral
    variables with fractional values and the variables outside their
    bounds, each as (name, value)."""

    objective: Number
    violations: tuple[tuple[int, str, Number], ...]
    integrality: tuple[tuple[str, Number], ...]
    bounds: tuple[tuple[str, Number], ...]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.integrality and not self.bounds


def check_assignment(
    model: LinearProgram,
    assignment: Assignment,
    feas_tol: Number = 0,
    int_tol: Number = 0,
) -> CheckReport:
    """List constraint violations beyond feas_tol, integrality violations
    beyond int_tol, and values that leave their variable's bounds by more
    than feas_tol. Exact when data and assignment values are integers.

    When every coefficient, right-hand side, bound and value is a plain
    `int` and no row sum can overflow, the rows are summed in int64 over
    the model's `RowTable`; otherwise they are summed in Python. Both give
    the same report, with Python numbers throughout."""
    values = assignment.values
    missing = next((name for name in model._names if name not in values), None)
    if missing is not None:
        raise ValueError(f"assignment is missing a value for {missing!r}")
    found = _check_int64(model, values, feas_tol, int_tol)
    if found is None:
        found = _check_python(model, values, feas_tol, int_tol)
    return CheckReport(model.objective_value(values), *map(tuple, found))


def _check_python(model, values, feas_tol, int_tol):
    """The violations, integrality and bounds lists of `check_assignment`,
    computed term by term in Python numbers."""
    point = list(map(values.__getitem__, model._names))
    violations = []
    for idx, (cols, coefs, sense, rhs, tag) in enumerate(model._row_items()):
        amount = _violation(sum(coef * point[j] for j, coef in zip(cols, coefs)), sense, rhs)
        if not amount <= feas_tol:
            violations.append((idx, tag, amount))
    integrality = []
    bounds = []
    columns = zip(model._names, model._kinds, model._lower, model._upper, point)
    for name, kind, lower, upper, value in columns:
        # A NaN or infinite value has no nearest integer.
        finite = value == value and abs(value) != math.inf
        if kind != CONTINUOUS and (not finite or abs(value - round(value)) > int_tol):
            integrality.append((name, value))
        if not max(lower - value, value - upper) <= feas_tol:
            bounds.append((name, value))
    return violations, integrality, bounds


def _check_int64(model, values, feas_tol, int_tol):
    """`_check_python`'s lists computed in int64 arrays, or None unless
    every coefficient, right-hand side, bound and value is a plain `int`,
    the tolerances are finite and int_tol is not negative (integral values
    then have no integrality violation), and |coef|·|value|·(row length)
    bounds every row sum below 2**63."""
    table = model.row_table()
    if table.coefs.dtype != np.int64 or not 0 <= int_tol or not math.isfinite(feas_tol):
        return None
    names = model._names
    point = list(map(values.__getitem__, names))
    numbers = (point, model._lower, model._upper, model._rhs)
    if not set(map(type, chain(*numbers))) <= {int}:
        return None
    big = max(map(abs, chain(*numbers)), default=0)
    coef = max(int(table.coefs.max(initial=0)), -int(table.coefs.min(initial=0)))
    longest = int(np.diff(table.indptr).max(initial=0))
    if (coef * longest + 2) * big >= 2**63:
        return None
    x, lower, upper, rhs = (np.array(a, dtype=np.int64) for a in numbers)
    # Each row sum is a difference of prefix sums. These may wrap, so they
    # are taken in uint64, where wrapping is defined; the differences are
    # the exact row sums, which fit.
    prefix = np.zeros(table.coefs.size + 1, dtype=np.uint64)
    np.cumsum((table.coefs * x[table.indices]).view(np.uint64), out=prefix[1:])
    lhs = (prefix[table.indptr[1:]] - prefix[table.indptr[:-1]]).view(np.int64)
    sense = np.array(model._senses, dtype="<U2")
    diff = lhs - rhs
    amount = np.select([sense == "<=", sense == ">="], [diff, -diff], np.abs(diff))
    # An integer exceeds feas_tol exactly when it exceeds floor(feas_tol);
    # the threshold is clamped into int64, beyond which no amount lies.
    threshold = min(max(math.floor(feas_tol), -(2**63)), 2**63 - 1)
    rows = np.flatnonzero(amount > threshold).tolist()
    violations = [(i, model._tags[i], a) for i, a in zip(rows, amount[rows].tolist())]
    outside = np.flatnonzero(np.maximum(lower - x, x - upper) > threshold).tolist()
    bounds = [(names[j], point[j]) for j in outside]
    return violations, [], bounds


_NAME_RE = re.compile(r"[^A-Za-z0-9_.\[\]]")
_CLEAN_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\[\]]*\Z")
# Lines `parse_lp` reads as a section change, and the empty-row marker.
_LP_WORDS = frozenset(["maximize", "minimize", "bounds", "binaries", "generals", "end", "zero_terms"])


def sanitize_name(name: str) -> str:
    """The LP and MPS token of `name`: other characters become `_`, and a
    `v` goes in front of a name that starts with a digit or a `.` or that
    is, in any case, a word `parse_lp` reads as a section or empty row."""
    clean = _NAME_RE.sub("_", name)
    if not clean or clean[0].isdigit() or clean[0] == "." or clean.lower() in _LP_WORDS:
        clean = "v" + clean
    return clean


def _sanitized_names(model: LinearProgram) -> list[str]:
    """The exported name of each variable, by column, worked out once per
    export call.

    A name that is already a valid token and no LP section word is kept
    as it is, which is what `sanitize_name` would return for it; only
    other names go through `sanitize_name`. Two variables that end up with
    one name are an error."""
    names = []
    seen = set()
    for name in model._names:
        clean = name
        if not _CLEAN_NAME_RE.match(name) or name.lower() in _LP_WORDS:
            clean = sanitize_name(name)
        if clean in seen:
            raise ValueError(f"variable name collision after sanitization: {clean!r}")
        seen.add(clean)
        names.append(clean)
    return names


def format_number(x: Number) -> str:
    """The LP and MPS text of a number: an integral value as an integer,
    anything else as the `repr` of its float. numpy numbers format as the
    Python numbers they equal."""
    if isinstance(x, Integral):
        return str(int(x))
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return repr(float(x))
    x = float(x)
    return str(int(x)) if x.is_integer() else repr(x)


class _NumberText(dict):
    """`format_number` of each distinct value met during one export call.

    Keying by value is safe because numbers that compare equal (1, 1.0,
    True, Fraction(1), np.int64(1); -0.0 and 0) already format to the same
    text."""

    def __missing__(self, value):
        text = self[value] = format_number(value)
        return text


def _number_ids(values):
    """Each of `values`' index into its distinct values, as an array, and
    those distinct values, exact, in order of first appearance. Equal
    numbers share one index, which is safe for the reason `_NumberText`
    gives."""
    position = dict(zip(dict.fromkeys(values), count()))
    return np.fromiter(map(position.__getitem__, values), np.intp, len(values)), list(position)


def _row_number_ids(model: LinearProgram):
    """`_number_ids` of the model's row coefficients. When the row table
    holds them exactly, in int64, over a range no wider than their count,
    a table of the values seen finds them in numpy instead."""
    coefs = model.row_table().coefs
    if coefs.dtype == np.int64 and coefs.size:
        low = int(coefs.min())
        span = int(coefs.max()) - low + 1
        if span <= coefs.size:
            shifted = coefs - low
            seen = np.zeros(span, dtype=bool)
            seen[shifted] = True
            return (np.cumsum(seen) - 1)[shifted], (np.flatnonzero(seen) + low).tolist()
    return _number_ids(model._coefs)


def _lp_rows(indptr, cols, coefs, names, heads, tails, numbers) -> str:
    """LP text of the CSR rows `indptr`, `cols` (column indices) with the
    coefficients `coefs` (as `_number_ids` gives them): per row its head,
    its terms and its tail.

    `names` is an object array of each column's name after a space. A term
    is a sign token with its coefficient's text, looked up by the
    coefficient's distinct index (a row's first term drops the "+ "), then
    its column's name. All pieces go into one object array, joined once."""
    indptr = indptr.astype(np.intp)
    ids, distinct = coefs
    signed = np.empty(2 * len(distinct), dtype=object)
    signed[0::2] = [f" - {numbers[-c]}" if c < 0 else f" + {numbers[c]}" for c in distinct]
    signed[1::2] = [f"- {numbers[-c]}" if c < 0 else numbers[c] for c in distinct]
    lengths = np.diff(indptr)
    nrows = lengths.size
    row_of = np.repeat(np.arange(nrows), lengths)
    first = np.zeros(ids.size, dtype=np.intp)
    first[indptr[:-1][lengths > 0]] = 1
    # Row i takes the slots from 2 * (indptr[i] + i): its head, a sign
    # token and a name per term, then its tail.
    heads_at = 2 * (indptr[:-1] + np.arange(nrows))
    terms_at = 2 * (np.arange(ids.size) + row_of) + 1
    pieces = np.empty(2 * (ids.size + nrows), dtype=object)
    pieces[heads_at] = heads
    pieces[heads_at + 2 * lengths + 1] = tails
    pieces[terms_at] = signed[2 * ids + first]
    pieces[terms_at + 1] = names[cols]
    return "".join(pieces.tolist())


def export_lp(model: LinearProgram) -> str:
    """LP-format text: objective, Subject To, Bounds, Binaries, Generals, End.

    The objective and the rows are assembled by `_lp_rows` from the row
    table; each distinct number, each variable name and each row label is
    formatted once per call and then looked up. The text is the one the
    golden tables in tests/test_model_golden.py and tests/test_ilp.py pin."""
    names = _sanitized_names(model)
    spaced = np.array([f" {name}" for name in names], dtype=object)
    numbers = _NumberText()
    table = model.row_table()
    obj_cols = np.array(model._obj_cols, dtype=np.intp)
    objective = _lp_rows(
        np.array([0, obj_cols.size]),
        obj_cols,
        _number_ids(model._obj_coefs),
        spaced,
        [" obj: "],
        ["" if obj_cols.size else "0 ZERO_TERMS"],
        numbers,
    )
    heads = [f"\\ tag: {tag}\n r{i}: " if tag else f" r{i}: " for i, tag in enumerate(model._tags, 1)]
    tails = [
        f"{'' if length else '0 ZERO_TERMS'} {sense} {numbers[rhs]}\n"
        for length, sense, rhs in zip(np.diff(table.indptr).tolist(), model._senses, model._rhs)
    ]
    rows = _lp_rows(table.indptr, table.indices, _row_number_ids(model), spaced, heads, tails, numbers)
    del heads, tails
    sense = "Maximize" if model.objective_sense == "max" else "Minimize"
    lines = ["Bounds"]
    for kind, name, lower, upper in zip(model._kinds, names, model._lower, model._upper):
        if kind != BINARY:
            lines.append(f" {numbers[lower]} <= {name} <= {numbers[upper]}")
    for section, kind in (("Binaries", BINARY), ("Generals", INTEGER)):
        listed = [f" {name}" for name, k in zip(names, model._kinds) if k == kind]
        if listed:
            lines += [section, *listed]
    lines.append("End")
    head = f"\\ Problem: {model.name}\n{sense}\n{objective}\nSubject To\n"
    return "".join([head, rows, *(f"{line}\n" for line in lines)])


def _parse_number(token: str) -> Number:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    if "/" in token:
        return Fraction(token)
    return float(token)


_TERM_RE = re.compile(r"([+-])?\s*(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)?\s*([A-Za-z_][A-Za-z0-9_.\[\]]*)")


def _parse_terms(text: str):
    terms = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match:
            raise ValueError(f"cannot parse linear expression near {text[pos:]!r}")
        sign, coef, name = match.groups()
        value = _parse_number(coef) if coef else 1
        if sign == "-":
            value = -value
        if name != "ZERO_TERMS":
            terms.append((name, value))
        pos = match.end()
        while pos < len(text) and text[pos] == " ":
            pos += 1
    return terms


def parse_lp(text: str) -> LinearProgram:
    """Read back the dialect emitted by export_lp."""
    model = LinearProgram()
    section = None
    pending_tag = ""
    rows = []
    bounds = {}
    binaries: set[str] = set()
    generals: set[str] = set()
    objective_sense = "max"
    objective_terms: list = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("\\"):
            comment = line[1:].strip()
            if comment.startswith("tag:"):
                pending_tag = comment[4:].strip()
            elif comment.startswith("Problem:"):
                model.name = comment[8:].strip()
            continue
        lowered = line.lower()
        if lowered in ("maximize", "minimize"):
            section = "objective"
            objective_sense = "max" if lowered == "maximize" else "min"
            continue
        if lowered == "subject to":
            section = "constraints"
            continue
        if lowered in ("bounds", "binaries", "generals", "end"):
            section = lowered
            continue
        if section == "objective":
            _, _, expr = line.partition(":")
            objective_terms.extend(_parse_terms(expr))
        elif section == "constraints":
            _, _, body = line.partition(":")
            match = re.search(r"(<=|>=|=)", body)
            if not match:
                raise ValueError(f"constraint without sense: {line!r}")
            sense = match.group(1)
            lhs, rhs = body[: match.start()], body[match.end() :]
            rows.append((_parse_terms(lhs), sense, _parse_number(rhs.strip()), pending_tag))
            pending_tag = ""
        elif section == "bounds":
            parts = line.split("<=")
            if len(parts) == 3:
                lower = _parse_number(parts[0].strip())
                name = parts[1].strip()
                upper = _parse_number(parts[2].strip())
                bounds[name] = (lower, upper)
            else:
                raise ValueError(f"unsupported bounds line: {line!r}")
        elif section == "binaries":
            binaries.update(line.split())
        elif section == "generals":
            generals.update(line.split())
    # Each name is declared where it first appears: in the objective, the
    # rows, then the Bounds, Binaries and Generals sections.
    names = [name for name, _ in objective_terms]
    names += [name for terms, *_ in rows for name, _ in terms]
    for name in dict.fromkeys(names + list(bounds) + sorted(binaries) + sorted(generals)):
        if name in binaries:
            model.add_variable(name, BINARY)
        else:
            lower, upper = bounds.get(name, (0, 1))
            kind = INTEGER if name in generals else CONTINUOUS
            model.add_variable(name, kind, lower, upper)
    model.set_objective(objective_sense, objective_terms)
    for terms, sense, rhs, tag in rows:
        model.add_constraint(terms, sense, rhs, tag)
    return model


_MPS_SENSE = {"<=": "L", ">=": "G", "=": "E"}


def _mps_columns(model: LinearProgram, names, row_fields, numbers) -> str:
    """The COLUMNS section's entry lines, assembled from the row table.

    The entries are the objective's, the rows' and a `COST      0` entry
    for each column with neither. They go in as CSR rows (the objective,
    the model's rows, then the `COST      0` entries), and the CSC
    transpose orders them by column, then row. Each line is the column's
    head, the row field and the coefficient's text, each looked up by
    index; a column's first line carries the INTORG or INTEND marker line
    when integrality changes there. All pieces go into one object array,
    joined once."""
    from .solver import _to_csc  # solver imports this module

    table = model.row_table()
    obj_cols = model._obj_cols
    obj_texts = [numbers[coef] for coef in model._obj_coefs]
    ids, distinct = _row_number_ids(model)
    texts = np.array(
        [f"{text}\n" for text in [*obj_texts, *map(numbers.__getitem__, distinct), "0"]],
        dtype=object,
    )
    listed = np.zeros(len(names), dtype=bool)
    listed[obj_cols] = True
    listed[table.indices] = True
    empty = np.flatnonzero(~listed)
    nobj = len(obj_cols)
    cols = np.concatenate([np.array(obj_cols, dtype=np.int32), table.indices, empty.astype(np.int32)])
    indptr = np.concatenate([[0], table.indptr + nobj, [cols.size]]).astype(np.int32)
    coef_ids = np.concatenate([np.arange(nobj), ids + nobj, np.full(empty.size, texts.size - 1)])
    del ids
    colptr, row_of, entry = _to_csc((indptr, cols, np.arange(cols.size, dtype=float)), len(names))
    del cols, indptr
    heads = np.empty(2 * len(names), dtype=object)
    in_integer_block = False
    markers = 0
    for j, (kind, name) in enumerate(zip(model._kinds, names)):
        heads[2 * j] = heads[2 * j + 1] = f"    {name:<9} "
        if (kind != CONTINUOUS) != in_integer_block:
            in_integer_block = kind != CONTINUOUS
            markers += 1
            heads[2 * j + 1] = f"{_mps_marker(markers, in_integer_block)}\n{heads[2 * j]}"
    # Every column has an entry; its first one takes the head with the marker.
    head_ids = np.repeat(np.arange(0, heads.size, 2), np.diff(colptr))
    head_ids[colptr[:-1]] += 1
    pieces = np.empty(3 * entry.size, dtype=object)
    pieces[0::3] = heads[head_ids]
    pieces[1::3] = np.array([*row_fields, row_fields[0]], dtype=object)[row_of]
    pieces[2::3] = texts[coef_ids[entry.astype(np.intp)]]
    del head_ids, row_of, entry, coef_ids
    if in_integer_block:
        return "".join([*pieces.tolist(), _mps_marker(markers + 1, False), "\n"])
    return "".join(pieces.tolist())


def _mps_marker(number: int, opens: bool) -> str:
    kind = "INTORG" if opens else "INTEND"
    return f"    MARKER{number:04d}  'MARKER'                 '{kind}'"


def export_mps(model: LinearProgram) -> str:
    """Fixed-field MPS text with integer markers and LI/UI bound entries.

    Names longer than a field push the rest of the line right, and at least
    one space always separates two fields, so free-format readers such as
    HiGHS parse every line. The COLUMNS section is assembled by
    `_mps_columns` from the row table; each distinct number, each variable
    name and each padded row name is formatted once per call and then
    looked up. The text is the one the golden tables in
    tests/test_model_golden.py and tests/test_ilp.py pin."""
    names = _sanitized_names(model)
    numbers = _NumberText()
    lines = [f"NAME          {model.name}"]
    lines.append("OBJSENSE")
    lines.append(f"    {'MAX' if model.objective_sense == 'max' else 'MIN'}")
    lines.append("ROWS")
    lines.append(" N  COST")
    rows = [f"r{idx}" for idx in range(1, len(model._senses) + 1)]
    lines += [f" {_MPS_SENSE[sense]}  {row}" for sense, row in zip(model._senses, rows)]
    lines.append("COLUMNS")
    row_fields = [f"{row:<9} " for row in ["COST", *rows]]
    columns = _mps_columns(model, names, row_fields, numbers)
    tail = ["RHS"]
    for field, rhs in zip(row_fields[1:], model._rhs):
        if rhs != 0:
            tail.append(f"    RHS       {field}{numbers[rhs]}")
    tail.append("BOUNDS")
    for kind, column, lower, upper in zip(model._kinds, names, model._lower, model._upper):
        if kind == BINARY:
            tail.append(f" BV BND       {column}")
        elif kind == INTEGER:
            tail.append(f" LI BND       {column:<9} {numbers[lower]}")
            tail.append(f" UI BND       {column:<9} {numbers[upper]}")
        else:
            tail.append(f" LO BND       {column:<9} {numbers[lower]}")
            tail.append(f" UP BND       {column:<9} {numbers[upper]}")
    tail.append("ENDATA")
    return "".join([*(f"{line}\n" for line in lines), columns, *(f"{line}\n" for line in tail)])
