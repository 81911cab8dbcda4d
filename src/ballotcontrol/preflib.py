"""Parsing and serialization of complete-list preference files.

Two layouts are supported and autodetected:

* legacy: line 1 is the number of alternatives m, lines 2..m+1 are
  "index,name" pairs, the next line is
  "voters,sum_of_multiplicities,unique_order_count", and every remaining
  line is "multiplicity,item,item,..." where an item is either a candidate
  index or a brace-delimited tie group "{i,j,...}".
* modern: metadata lines "# KEY: VALUE" (NUMBER ALTERNATIVES, NUMBER
  VOTERS, ALTERNATIVE NAME k, ...) followed by order lines
  "multiplicity: item,item,...".

Serialization always emits the legacy layout with the exact field order
above. Every order line must cover all m alternatives exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Election, ScoreMatrix, StrictProfile, TiedProfile, _candidates, _voters


class PrefLibParseError(ValueError):
    """Raised on malformed preference files."""


OrderLine = tuple[int, tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class PrefLibDocument:
    """A parsed preference file: metadata, alternatives, and order lines."""

    metadata: tuple[tuple[str, str], ...]
    alternatives: tuple[tuple[int, str], ...]
    order_lines: tuple[OrderLine, ...]

    @property
    def m(self) -> int:
        return len(self.alternatives)

    @property
    def num_voters(self) -> int:
        return sum(mult for mult, _ in self.order_lines)

    @property
    def is_strict(self) -> bool:
        return all(
            len(group) == 1 for _, order in self.order_lines for group in order
        )


def parse_preflib(text) -> PrefLibDocument:
    """Parse a legacy or modern complete-list preference file."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise PrefLibParseError("empty input")
    if lines[0].startswith("#"):
        return _parse_modern(lines)
    return _parse_legacy(lines)


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise PrefLibParseError(f"expected an integer {what}, got {token!r}") from None


def _split_items(text: str):
    """Split a comma-separated order on top-level commas, keeping {...} intact."""
    items, depth, current = [], 0, []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise PrefLibParseError(f"unbalanced braces in order {text!r}")
        if ch == "," and depth == 0:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    items.append("".join(current))
    if depth != 0:
        raise PrefLibParseError(f"unbalanced braces in order {text!r}")
    return [item.strip() for item in items if item.strip()]


def _parse_order(text: str, m: int) -> tuple[tuple[int, ...], ...]:
    groups = []
    for item in _split_items(text):
        if item.startswith("{"):
            if not item.endswith("}"):
                raise PrefLibParseError(f"malformed tie group {item!r}")
            members = tuple(
                _parse_int(tok, "candidate index")
                for tok in item[1:-1].split(",")
                if tok.strip()
            )
            if not members:
                raise PrefLibParseError(f"empty tie group in order {text!r}")
            groups.append(members)
        else:
            groups.append((_parse_int(item, "candidate index"),))
    seen = [c for group in groups for c in group]
    if any(not 1 <= c <= m for c in seen):
        raise PrefLibParseError(f"candidate index out of range 1..{m} in {text!r}")
    if sorted(seen) != list(range(1, m + 1)):
        raise PrefLibParseError(f"order {text!r} does not cover all {m} alternatives exactly once")
    return tuple(groups)


def _parse_order_line(mult_token: str, order_text: str, m: int) -> OrderLine:
    mult = _parse_int(mult_token, "multiplicity")
    if mult < 1:
        raise PrefLibParseError(f"multiplicity must be positive, got {mult}")
    return mult, _parse_order(order_text, m)


def _parse_legacy(lines) -> PrefLibDocument:
    m = _parse_int(lines[0], "alternative count")
    if m < 1 or len(lines) < m + 2:
        raise PrefLibParseError("malformed header: missing alternatives or counts line")
    alternatives = []
    for i, line in enumerate(lines[1 : m + 1], start=1):
        idx_token, _, name = line.partition(",")
        idx = _parse_int(idx_token, "alternative index")
        if idx != i:
            raise PrefLibParseError(f"alternative indices must run 1..{m}, got {idx}")
        alternatives.append((idx, name.strip()))
    counts = lines[m + 1].split(",")
    if len(counts) != 3:
        raise PrefLibParseError(f"malformed header: counts line {lines[m + 1]!r}")
    _, total, unique = (_parse_int(tok, "count") for tok in counts)
    order_lines = []
    for line in lines[m + 2 :]:
        mult_token, _, order_text = line.partition(",")
        order_lines.append(_parse_order_line(mult_token, order_text, m))
    if not order_lines:
        raise PrefLibParseError("file contains no order lines")
    if len(order_lines) != unique:
        raise PrefLibParseError(
            f"header declares {unique} unique orders, file has {len(order_lines)}"
        )
    if sum(mult for mult, _ in order_lines) != total:
        raise PrefLibParseError("header multiplicity total does not match order lines")
    return PrefLibDocument((), tuple(alternatives), tuple(order_lines))


def _parse_modern(lines) -> PrefLibDocument:
    metadata = []
    order_lines_raw = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            metadata.append((key.strip(), value.strip()))
        else:
            order_lines_raw.append(line)
    meta = dict(metadata)
    if "NUMBER ALTERNATIVES" not in meta:
        raise PrefLibParseError("malformed header: missing NUMBER ALTERNATIVES")
    m = _parse_int(meta["NUMBER ALTERNATIVES"], "alternative count")
    if m < 1:
        raise PrefLibParseError("malformed header: need at least one alternative")
    alternatives = tuple(
        (k, meta.get(f"ALTERNATIVE NAME {k}", f"c{k}")) for k in range(1, m + 1)
    )
    order_lines = []
    for line in order_lines_raw:
        mult_token, sep, order_text = line.partition(":")
        if not sep:
            raise PrefLibParseError(f"order line {line!r} lacks a multiplicity")
        order_lines.append(_parse_order_line(mult_token, order_text, m))
    if not order_lines:
        raise PrefLibParseError("file contains no order lines")
    if "NUMBER VOTERS" in meta:
        declared = _parse_int(meta["NUMBER VOTERS"], "voter count")
        if declared != sum(mult for mult, _ in order_lines):
            raise PrefLibParseError("NUMBER VOTERS does not match order-line multiplicities")
    return PrefLibDocument(tuple(metadata), alternatives, tuple(order_lines))


def serialize_preflib(doc: PrefLibDocument) -> str:
    """Emit the legacy layout, bit-exact field order."""
    lines = [str(doc.m)]
    for idx, name in doc.alternatives:
        lines.append(f"{idx},{name}")
    total = doc.num_voters
    lines.append(f"{total},{total},{len(doc.order_lines)}")
    for mult, order in doc.order_lines:
        items = []
        for group in order:
            if len(group) == 1:
                items.append(str(group[0]))
            else:
                items.append("{" + ",".join(str(c) for c in group) + "}")
        lines.append(f"{mult}," + ",".join(items))
    return "\n".join(lines) + "\n"


def _expanded_orders(doc: PrefLibDocument) -> list:
    """One order per unit of multiplicity, in file order."""
    orders = []
    for mult, order in doc.order_lines:
        orders.extend([order] * mult)
    return orders


def expand_voters(doc: PrefLibDocument) -> Election:
    """One voter per unit of multiplicity, in file order, as a
    StrictProfile. A file with ties has no strict profile: it raises
    ValueError, and `expand_scores` reads it as scores instead."""
    if not doc.is_strict:
        raise ValueError("the file has ties; read it as scores with expand_scores")
    names = [name for _, name in doc.alternatives]
    orders = _expanded_orders(doc)
    profile = StrictProfile(tuple(tuple(g[0] for g in order) for order in orders))
    return Election(_candidates(doc.m, names), _voters(len(orders)), profile)


def expand_scores(doc: PrefLibDocument) -> Election:
    """One voter per unit of multiplicity, in file order, as a ScoreMatrix
    from `tied_to_scores`. Reads strict files and files with ties alike."""
    names = [name for _, name in doc.alternatives]
    orders = _expanded_orders(doc)
    scores = tied_to_scores(TiedProfile(tuple(orders)), doc.m)
    return Election(_candidates(doc.m, names), _voters(len(orders)), scores)


def tied_to_scores(profile: TiedProfile, m: int) -> ScoreMatrix:
    """Score matrix from tie groups: every candidate in the g-th group
    (groups numbered 1.. in preference order) receives m - g points.

    On a fully linear order this is the usual top-gets-m-1 .. last-gets-0
    assignment. With ties, all members of a group share the group's score;
    this group-position convention is an interpretation choice (an
    alternative would be rank-position scoring) and is documented as such.
    """
    if profile.m != m:
        raise ValueError(f"profile has {profile.m} candidates, expected {m}")
    columns = []
    for voter_groups in profile.groups:
        col = [0] * m
        for g, group in enumerate(voter_groups, start=1):
            for c in group:
                col[c - 1] = m - g
        columns.append(col)
    return ScoreMatrix(tuple(tuple(col[i] for col in columns) for i in range(m)))
