"""One answer, from preference text to a checked deletion set, through the
library's public functions in the order `solve_control` calls them.

With a recording `Tracer`, every layer call is a span, and the traced run
also makes the probe calls that only measure a layer (`solve_lp_relaxation`
on the encoded model, `winner_after_deletion` on the kept set,
`check_assignment` on the incumbent). Probes repeat work the answer has
already done, so their spans are kept apart from the tracing overhead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ballotcontrol import (
    ControlSpec,
    Election,
    TiedProfile,
    check_assignment,
    decode,
    encode_control,
    expand_voters,
    export_lp,
    export_mps,
    normalize_target,
    parse_preflib,
    solve,
    solve_lp_relaxation,
    swap_index,
    tied_to_scores,
    winner_after_deletion,
)

PROBES = ("solver.root_lp", "rules.recheck", "ilp.check")


class Tracer:
    """In-memory spans: name, start, end, parent span index, instance id;
    plus counts per layer. A disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def span(self, name: str, instance: str):
        return self._record(name, instance) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name, instance):
        index = len(self.spans)
        span = {"name": name, "instance": instance, "parent": self._open[-1] if self._open else None}
        self.spans.append(span)
        self._open.append(index)
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount


@dataclass(frozen=True)
class Answer:
    status: str
    objective: Optional[int]
    kept: tuple[int, ...]
    deleted: tuple[int, ...]


def _as_scores(election: Election) -> Election:
    """Range reads a strict-order file as scores, as the command line does."""
    groups = TiedProfile(tuple(tuple((c,) for c in r) for r in election.preferences.rankings))
    return Election(election.candidates, election.voters, tied_to_scores(groups, election.m))


def answer(inst, text: str, out_dir: Path, tracer: Tracer) -> Answer:
    """Solve one instance; write its LP and MPS files when it asks for export."""
    iid = inst.id
    with tracer.span("answer", iid):
        with tracer.span("preflib.parse", iid):
            doc = parse_preflib(text)
        with tracer.span("preflib.expand", iid):
            election = expand_voters(doc)
            if inst.rule == "range":
                election = _as_scores(election)
        spec = ControlSpec(inst.rule, inst.action, inst.mode, inst.target)
        with tracer.span("core.normalize", iid):
            norm_election, norm_spec = normalize_target(election, spec)
        with tracer.span("encoders.encode", iid):
            problem = encode_control(norm_election, norm_spec)
        model = problem.model
        if tracer.enabled:
            tracer.count("encoders.vars", len(model.variables))
            tracer.count("encoders.rows", len(model.constraints))
            tracer.count("encoders.nonzeros", sum(len(c.terms) for c in model.constraints))
            with tracer.span("solver.root_lp", iid):
                solve_lp_relaxation(model)
        if inst.export:
            with tracer.span("ilp.export", iid):
                lp_text, mps_text = export_lp(model), export_mps(model)
                (out_dir / f"{iid}.lp").write_text(lp_text)
                (out_dir / f"{iid}.mps").write_text(mps_text)
            tracer.count("ilp.export_bytes", len(lp_text) + len(mps_text))
        with tracer.span("solver.solve", iid):
            result = solve(model)
        tracer.count("solver.nodes", result.nodes_explored)
        if result.status != "Optimal":
            return Answer(result.status, None, (), ())
        if tracer.enabled:
            with tracer.span("ilp.check", iid):
                check_assignment(model, result.incumbent)
        with tracer.span("encoders.decode", iid):
            solution = decode(problem, result.incumbent, norm_election, norm_spec)
        if tracer.enabled:
            with tracer.span("rules.recheck", iid):
                winner_after_deletion(norm_election, inst.rule, solution.kept, inst.action)
        kept, deleted = solution.kept, solution.deleted
        if inst.action == "delete-candidates":
            kept = tuple(sorted(swap_index(c, 1, inst.target) for c in kept))
            deleted = tuple(sorted(swap_index(c, 1, inst.target) for c in deleted))
        return Answer(solution.status, solution.objective, kept, deleted)
