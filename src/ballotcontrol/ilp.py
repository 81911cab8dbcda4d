"""Integer linear program representation with rational coefficients.

Models are built single-threaded through the LinearProgram methods and
treated as immutable afterwards. Coefficients, bounds, and right-hand
sides are plain Python numbers; encoders only produce integers, so
feasibility checks on rounded assignments are exact.

Text formats: a five-section LP dialect (Maximize/Minimize, Subject To,
Bounds, Binaries, Generals, End) that `parse_lp` reads back losslessly
for integer data, and classic fixed-field MPS with INTORG/INTEND markers
and LI/UI bound entries for general integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

Number = Union[int, float, Fraction]

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

SENSES = ("<=", ">=", "=")


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str = CONTINUOUS
    lower: Number = 0
    upper: Number = 1

    def __post_init__(self):
        if self.kind not in (BINARY, INTEGER, CONTINUOUS):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == BINARY and (self.lower, self.upper) != (0, 1):
            raise ValueError("binary variables must have bounds [0, 1]")
        if self.lower > self.upper:
            raise ValueError(f"variable {self.name}: lower bound exceeds upper bound")

    @property
    def is_integral(self) -> bool:
        return self.kind in (BINARY, INTEGER)


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
        lhs = self.lhs_value(values)
        if self.sense == "<=":
            return lhs - self.rhs
        if self.sense == ">=":
            return self.rhs - lhs
        return abs(lhs - self.rhs)

    def satisfied(self, values: Mapping[str, Number], tol: Number = 0) -> bool:
        return self.violation(values) <= tol


@dataclass(frozen=True)
class Assignment:
    """Values for every variable of a model."""

    values: Mapping[str, Number]

    def __getitem__(self, name: str) -> Number:
        return self.values[name]


class LinearProgram:
    """Variables with bounds and integrality, linear constraints, objective."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[LinearConstraint] = []
        self.objective_sense = "max"
        self.objective: tuple[tuple[str, Number], ...] = ()
        self._index: dict[str, int] = {}

    def add_variable(self, name, kind=CONTINUOUS, lower=0, upper=1) -> str:
        if name in self._index:
            raise ValueError(f"variable {name!r} already declared")
        self._index[name] = len(self.variables)
        self.variables.append(Variable(name, kind, lower, upper))
        return name

    def variable(self, name: str) -> Variable:
        return self.variables[self._index[name]]

    def add_constraint(self, terms, sense, rhs, tag="") -> LinearConstraint:
        constraint = LinearConstraint(tuple(terms), sense, rhs, tag)
        for name, _ in constraint.terms:
            if name not in self._index:
                raise ValueError(f"constraint {tag!r} references undeclared variable {name!r}")
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, sense, terms):
        if sense not in ("max", "min"):
            raise ValueError(f"unknown objective sense {sense!r}")
        terms = tuple(terms)
        for name, _ in terms:
            if name not in self._index:
                raise ValueError(f"objective references undeclared variable {name!r}")
        self.objective_sense = sense
        self.objective = terms

    def objective_value(self, values: Mapping[str, Number]) -> Number:
        return sum(coef * values[name] for name, coef in self.objective)

    def expression_box_max(self, terms) -> Number:
        """Largest value the expression can take over the variable box."""
        total = 0
        for name, coef in terms:
            var = self.variable(name)
            total += coef * (var.upper if coef > 0 else var.lower)
        return total


def add_alternative_block(
    model: LinearProgram,
    alternatives: Sequence,
    names: Sequence[str],
    pick_tag: str,
    big_m: Optional[Number] = None,
) -> list[str]:
    """Install "at least one of these alternatives holds" as linear rows.

    Each alternative is a <=-sense constraint, or a list of them that must
    hold together; a fresh binary indicator y, named by `names` in order, is
    declared per alternative, each row becomes `expr <= rhs + M*(1-y)`, and
    the row `sum(y) >= 1`, tagged `pick_tag`, forces one indicator on. With
    `big_m=None` every row gets the smallest bound that is valid over the
    variable box; an explicit big_m is validated against that bound.
    Returns the indicator names.
    """
    groups = []
    for alt in alternatives:
        if isinstance(alt, LinearConstraint):
            groups.append([alt])
        else:
            group = list(alt)
            if not group:
                raise ValueError("empty alternative group")
            groups.append(group)
    if not groups:
        raise ValueError("alternative block needs at least one alternative")
    for group in groups:
        for constraint in group:
            if constraint.sense != "<=":
                raise ValueError("alternatives must be <=-sense constraints")
    if len(names) != len(groups):
        raise ValueError("one indicator name per alternative required")
    indicator_names = list(names)
    for name in indicator_names:
        model.add_variable(name, BINARY)
    for y, group in zip(indicator_names, groups):
        for constraint in group:
            needed = model.expression_box_max(constraint.terms) - constraint.rhs
            m_value = needed if big_m is None else big_m
            if m_value < needed:
                raise ValueError(
                    f"big-M {m_value} too small for alternative {constraint.tag!r} "
                    f"(needs at least {needed})"
                )
            if m_value < 0:
                m_value = 0
            model.add_constraint(
                constraint.terms + ((y, m_value),),
                "<=",
                constraint.rhs + m_value,
                tag=constraint.tag,
            )
    model.add_constraint(tuple((y, 1) for y in indicator_names), ">=", 1, tag=pick_tag)
    return indicator_names


@dataclass(frozen=True)
class CheckReport:
    """Outcome of checking an assignment against a model."""

    objective: Number
    violations: tuple[tuple[int, str, Number], ...]
    integrality: tuple[tuple[str, Number], ...]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.integrality


def check_assignment(
    model: LinearProgram,
    assignment: Assignment,
    feas_tol: Number = 0,
    int_tol: Number = 0,
) -> CheckReport:
    """List constraint violations beyond feas_tol and integrality violations
    beyond int_tol. Exact when data and assignment values are integers."""
    values = assignment.values
    for var in model.variables:
        if var.name not in values:
            raise ValueError(f"assignment is missing a value for {var.name!r}")
    violations = []
    for idx, constraint in enumerate(model.constraints):
        amount = constraint.violation(values)
        if amount > feas_tol:
            violations.append((idx, constraint.tag, amount))
    integrality = []
    for var in model.variables:
        if var.is_integral:
            value = values[var.name]
            if abs(value - round(value)) > int_tol:
                integrality.append((var.name, value))
    return CheckReport(
        model.objective_value(values), tuple(violations), tuple(integrality)
    )


_NAME_RE = re.compile(r"[^A-Za-z0-9_.\[\]]")
_CLEAN_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\[\]]*\Z")


def sanitize_name(name: str) -> str:
    clean = _NAME_RE.sub("_", name)
    if not clean or clean[0].isdigit() or clean[0] == ".":
        clean = "v" + clean
    return clean


def _sanitized_names(model: LinearProgram) -> dict[str, str]:
    """The exported name of each variable, worked out once per export call.

    A name that is already a valid token is kept as it is, which is what
    `sanitize_name` would return for it; only other names go through
    `sanitize_name`. Two variables that end up with one name are an error."""
    mapping = {}
    seen = set()
    for var in model.variables:
        name = var.name
        clean = name if _CLEAN_NAME_RE.match(name) else sanitize_name(name)
        if clean in seen:
            raise ValueError(f"variable name collision after sanitization: {clean!r}")
        seen.add(clean)
        mapping[name] = clean
    return mapping


def format_number(x: Number) -> str:
    if isinstance(x, bool):
        x = int(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return repr(float(x))
    if isinstance(x, float) and x.is_integer():
        return str(int(x))
    return repr(x)


class _NumberText(dict):
    """`format_number` of each distinct value met during one export call.

    Keying by value is safe because numbers that compare equal (1, 1.0,
    True, Fraction(1); -0.0 and 0) already format to the same text."""

    def __missing__(self, value):
        text = self[value] = format_number(value)
        return text


def _format_terms(terms, names, numbers) -> str:
    if not terms:
        return "0 ZERO_TERMS"
    text = " ".join(
        [
            f"- {numbers[-coef]} {names[name]}" if coef < 0 else f"+ {numbers[coef]} {names[name]}"
            for name, coef in terms
        ]
    )
    return text[2:] if text[0] == "+" else text


def export_lp(model: LinearProgram) -> str:
    """LP-format text: objective, Subject To, Bounds, Binaries, Generals, End.

    Each distinct number and each variable name is formatted once per call
    and then looked up. The text is the one the golden tables in
    tests/test_model_golden.py and tests/test_ilp.py pin."""
    names = _sanitized_names(model)
    numbers = _NumberText()
    lines = [f"\\ Problem: {model.name}"]
    lines.append("Maximize" if model.objective_sense == "max" else "Minimize")
    lines.append(f" obj: {_format_terms(model.objective, names, numbers)}")
    lines.append("Subject To")
    for idx, constraint in enumerate(model.constraints, start=1):
        if constraint.tag:
            lines.append(f"\\ tag: {constraint.tag}")
        lines.append(
            f" r{idx}: {_format_terms(constraint.terms, names, numbers)} "
            f"{constraint.sense} {numbers[constraint.rhs]}"
        )
    lines.append("Bounds")
    for var in model.variables:
        if var.kind == BINARY:
            continue
        lines.append(f" {numbers[var.lower]} <= {names[var.name]} <= {numbers[var.upper]}")
    binaries = [names[v.name] for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    generals = [names[v.name] for v in model.variables if v.kind == INTEGER]
    if generals:
        lines.append("Generals")
        for name in generals:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


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
    declared = []
    seen = set()
    for name, _ in objective_terms:
        if name not in seen:
            seen.add(name)
            declared.append(name)
    for terms, _, _, _ in rows:
        for name, _ in terms:
            if name not in seen:
                seen.add(name)
                declared.append(name)
    for name in list(bounds) + sorted(binaries) + sorted(generals):
        if name not in seen:
            seen.add(name)
            declared.append(name)
    for name in declared:
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


def export_mps(model: LinearProgram) -> str:
    """Fixed-field MPS text with integer markers and LI/UI bound entries.

    Names longer than a field push the rest of the line right, and at least
    one space always separates two fields, so free-format readers such as
    HiGHS parse every line. Each distinct number, each variable name and
    each padded row name is formatted once per call and then looked up.
    The text is the one the golden tables in tests/test_model_golden.py
    and tests/test_ilp.py pin."""
    names = _sanitized_names(model)
    numbers = _NumberText()
    lines = [f"NAME          {model.name}"]
    lines.append("OBJSENSE")
    lines.append(f"    {'MAX' if model.objective_sense == 'max' else 'MIN'}")
    lines.append("ROWS")
    lines.append(" N  COST")
    row_fields = []
    for idx, constraint in enumerate(model.constraints, start=1):
        row = f"r{idx}"
        row_fields.append(f"{row:<9} ")
        lines.append(f" {_MPS_SENSE[constraint.sense]}  {row}")
    # Each column's entries as finished "<row:9> <coef>" text.
    entries: dict[str, list[str]] = {v.name: [] for v in model.variables}
    for name, coef in model.objective:
        entries[name].append(f"COST      {numbers[coef]}")
    for field, constraint in zip(row_fields, model.constraints):
        for name, coef in constraint.terms:
            entries[name].append(field + numbers[coef])
    lines.append("COLUMNS")
    in_integer_block = False
    marker_count = 0

    def marker(kind):
        nonlocal marker_count
        marker_count += 1
        return f"    MARKER{marker_count:04d}  'MARKER'                 '{kind}'"

    for var in model.variables:
        if var.is_integral != in_integer_block:
            in_integer_block = var.is_integral
            lines.append(marker("INTORG" if in_integer_block else "INTEND"))
        head = f"    {names[var.name]:<9} "
        column = entries[var.name]
        if column:
            lines.extend([head + entry for entry in column])
        else:
            lines.append(f"{head}COST      0")
    if in_integer_block:
        lines.append(marker("INTEND"))
    lines.append("RHS")
    for field, constraint in zip(row_fields, model.constraints):
        if constraint.rhs != 0:
            lines.append(f"    RHS       {field}{numbers[constraint.rhs]}")
    lines.append("BOUNDS")
    for var in model.variables:
        column = names[var.name]
        if var.kind == BINARY:
            lines.append(f" BV BND       {column}")
        elif var.kind == INTEGER:
            lines.append(f" LI BND       {column:<9} {numbers[var.lower]}")
            lines.append(f" UI BND       {column:<9} {numbers[var.upper]}")
        else:
            lines.append(f" LO BND       {column:<9} {numbers[var.lower]}")
            lines.append(f" UP BND       {column:<9} {numbers[var.upper]}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
