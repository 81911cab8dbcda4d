"""Benchmark of ballotcontrol: one closed-loop client in one process.

    python3 perfbench/run.py --workload voters-large --seed 1 --seconds 20 --trace 0

Run from the repository root. A run builds the workload's instances from
the seed, answers them in whole passes until `--seconds` of answering have
passed, checks every answer against computations made apart from the
library (see checks.py), and prints one JSON object as its last line.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
adds one traced pass and reports the per-layer metrics and the tracing
overhead. Times are reference seconds: each wall time divided by the
machine's speed index measured around it (see speed.py). Spans and
results, with the wall times, are written under perfbench/out/.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools start with the first numpy import, so the pinning
# has to come first; child interpreters inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_STARTS = 7


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup(starts: int) -> tuple[float, list[float], list[str]]:
    """Median time in reference seconds of fresh interpreters that import
    the package and answer the set-up probe; their wall times; and what was
    wrong with any probe answer."""
    from checks import tally_winner
    from speed import factors, sample

    times, speeds, problems = [], [sample()], []
    for _ in range(starts):
        begin = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "first_answer.py")], capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - begin)
        speeds.append(sample())
        if done.returncode != 0:
            problems.append(f"set-up probe exited {done.returncode}: {done.stderr.strip()[-300:]}")
            continue
        got = json.loads(done.stdout)
        rankings = ((1, 2, 3, 4), (1, 3, 2, 4), (4, 3, 2, 1))
        weights = [1 if v in got["kept"] else 0 for v in (1, 2, 3)]
        if got["objective"] != 2 or len(got["kept"]) != 2 or tally_winner("bucklin", rankings, weights, range(1, 5)) == 1:
            problems.append(f"set-up probe answered {got}")
    return statistics.median(t / f for t, f in zip(times, factors(speeds))), times, problems


def run_pass(instances, texts, out_dir, tracer, record, speeds):
    """Answer every instance once, each after a speed sample; returns the
    pass's answering wall seconds."""
    from checks import kept_set_problems
    from pipeline import answer
    from speed import sample

    total = 0.0
    for inst, text in zip(instances, texts):
        speeds.append(sample())
        begin = time.perf_counter()
        try:
            got = answer(inst, text, out_dir, tracer)
        except Exception as exc:  # a crash is a failed answer, not a failed run
            elapsed = time.perf_counter() - begin
            record.append((inst, "error", None, [f"{type(exc).__name__}: {exc}"], elapsed))
        else:
            elapsed = time.perf_counter() - begin
            # Only the verdict on the kept set is kept, so stored answers do
            # not grow the resident set with the number of passes.
            problems = kept_set_problems(inst, got.status, got.objective, got.kept, got.deleted)
            record.append((inst, got.status, got.objective, problems, elapsed))
        total += elapsed
    return total


def count_failures(record, refs):
    """Failed answers, and how many of them the checks found wrong.

    A crash, a limit status or an exported model HiGHS cannot read is a
    failed answer. An answer the checks reject is failed too, and wrong:
    one wrong answer makes the whole run incorrect.
    """
    from checks import reference_problems

    failures, wrong = [], 0
    for inst, status, objective, problems, _ in record:
        ref = refs[inst.id]
        if status in ("Optimal", "Infeasible"):
            problems = problems + reference_problems(ref, status, objective)
            wrong += bool(problems)
            problems += [ref.export_error] if ref.export_error else []
        if problems:
            failures.append({"instance": inst.id, "problems": problems})
    return failures, wrong


def layer_metrics(tracer, scale, traced_s, untraced_s):
    """Per-layer sums over the traced pass; `scale` maps an instance id to
    the speed factor of its answer, and the pass times are already scaled."""
    from pipeline import PROBES

    def seconds(name):
        return sum((s["end"] - s["start"]) / scale[s["instance"]] for s in tracer.spans if s["name"] == name)

    timed = ("preflib.parse", "preflib.expand", "core.normalize", "encoders.encode", "encoders.decode",
             "rules.recheck", "solver.root_lp", "solver.solve", "ilp.check", "ilp.export")
    metrics = {f"{span}_s": {"value": seconds(span), "unit": "s"} for span in timed}
    for name in ("encoders.vars", "encoders.rows", "encoders.nonzeros", "solver.nodes"):
        metrics[name] = {"value": tracer.counts.get(name, 0), "unit": "count"}
    metrics["ilp.export_bytes"] = {"value": tracer.counts.get("ilp.export_bytes", 0), "unit": "bytes"}
    nodes = max(tracer.counts.get("solver.nodes", 0), 1)
    metrics["solver.s_per_node"] = {"value": metrics["solver.solve_s"]["value"] / nodes, "unit": "s"}
    probes = sum(seconds(p) for p in PROBES)
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s - probes, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ballotcontrol" / "__init__.py").is_file():
        return _fail(f"no library source under {ROOT / 'src'}; run from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from checks import reference
    from pipeline import Tracer, answer
    from speed import factors, sample
    from workloads import WARM_UP, WORKLOADS, build
    from ballotcontrol import encode_control, normalize_target, ControlSpec, Election

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    # The first kernel call loads scipy's LP code; no speed sample pays for that.
    sample()
    setup_s, setup_walls, setup_problems = (None, [], []) if args.trace else measure_setup(SETUP_STARTS)

    instances = build(args.workload, args.seed)
    texts = [inst.text() for inst in instances]
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    # Lazy imports and first-call costs stay out of timing.
    answer(WARM_UP, WARM_UP.text(), out_dir, Tracer(False))

    record, pass_times, speeds = [], [], []
    while sum(pass_times) < args.seconds or not pass_times:
        pass_times.append(run_pass(instances, texts, out_dir, Tracer(False), record, speeds))
        if len(pass_times) == 1:
            # Later passes repeat the same work; what they add to the peak is
            # allocator growth that varies with how many passes fit.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speeds.append(sample())
    timed = len(record)
    scaled = [r[4] / f for r, f in zip(record, factors(speeds))]
    scaled_passes = [sum(scaled[i : i + len(instances)]) for i in range(0, timed, len(instances))]

    tracer = None
    if args.trace:
        tracer, trace_speeds = Tracer(True), []
        run_pass(instances, texts, out_dir, tracer, record, trace_speeds)
        trace_speeds.append(sample())
        scale = {inst.id: f for inst, f in zip(instances, factors(trace_speeds))}
        traced_s = sum(r[4] / scale[r[0].id] for r in record[timed:])

    refs = {}
    skipped = set()
    for inst in instances:

        def encoded(inst=inst):
            election = Election.from_rankings([r for r, c in zip(inst.rankings, inst.counts) for _ in range(c)])
            spec = ControlSpec(inst.rule, inst.action, inst.mode, inst.target)
            return encode_control(*normalize_target(election, spec)).model

        refs[inst.id] = reference(inst, encoded, out_dir / f"{inst.id}.mps" if inst.export else None)
        skipped.update(refs[inst.id].skipped)
    for path in out_dir.glob("*.[lm]p*"):
        path.unlink()

    failures, wrong = count_failures(record, refs)

    attempted = len(record)
    if args.trace:
        metrics = layer_metrics(tracer, scale, traced_s, statistics.median(scaled_passes))
    else:
        metrics = {
            "answers_per_s": {"value": (attempted - len(failures)) / sum(scaled), "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not wrong and not setup_problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(pass_times),
        "pass_seconds": scaled_passes,
        "pass_wall_seconds": pass_times,
        "speed_samples": speeds,
        "setup_wall_seconds": setup_walls,
        "instance_wall_seconds": {inst.id: [round(r[4], 4) for r in record if r[0] is inst] for inst in instances},
        "references": {k: {"status": r.status, "objective": r.objective, "sources": r.sources} for k, r in refs.items()},
        "skipped_checks": sorted(skipped),
        "failures": failures,
        "setup_problems": setup_problems,
        "result": result,
    }
    if tracer is not None:
        details["spans"] = tracer.spans
        details["counts"] = tracer.counts
    (out_dir / f"{'trace' if args.trace else 'result'}.json").write_text(json.dumps(details, indent=1))
    for name in sorted(skipped):
        print(f"check skipped: {name} (HiGHS binding not importable)")
    for failure in failures[:10]:
        print(f"failed: {failure['instance']}: {'; '.join(failure['problems'])[:500]}")
    for problem in setup_problems:
        print(f"set-up probe: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
