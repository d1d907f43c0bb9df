"""maskterm benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload ate-actm-short --seed 1 --seconds 30 --trace 0

Run from the repository root. The run writes the workload's inputs as JSONL
from the seed, then repeats a closed-loop pass over the package's public
entry points (read, train one epoch, evaluate the held-out set, evaluate it
one instance at a time) until `--seconds` is used up, with at least three
passes. Every pass is checked for correctness, and a pass whose read,
train or full-set evaluate raises ends the run. With `--trace 0` the last
line holds the end-to-end metrics of BENCHMARK.json; with `--trace 1` it
holds the per-layer metrics, from passes traced span by span and compared
with untraced ones. Metrics that need a pass which did not complete are
left out. The line before it gives details such as sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import HostSpeed
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3


def load_bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, bench: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _keep_going(started: float, passes: int, seconds: float, minimum: int) -> bool:
    """Start another pass only if one more of average length still fits."""
    if passes < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed * (passes + 1) / passes <= seconds


def measure_untraced(harness, wl, paths, seconds, host):
    rec = SpanRecorder()
    harness.install_boundary(rec, host)
    passes = []
    started = time.perf_counter()
    try:
        while _keep_going(started, len(passes), seconds, MIN_PASSES):
            rec.spans.clear()
            passes.append(harness.run_pass(wl, *paths, rec, host))
            if not passes[-1].complete:
                break
    finally:
        rec.restore()
    return passes


def measure_traced(harness, wl, paths, seconds, host):
    """Pairs of one untraced and one traced pass, after an untraced warm-up
    pass that pays for first calls and fresh memory. Returns (all passes,
    layer recorder, traced pass count, host-speed scaling of the traced
    passes, tracing overhead); the last three are None if a pass did not
    complete."""
    boundary = SpanRecorder()
    layers = SpanRecorder()

    def one(rec, install):
        install(rec)
        try:
            return harness.run_pass(wl, *paths, rec, host)
        finally:
            rec.restore()
            boundary.spans.clear()

    def untraced_pass():
        return one(boundary, lambda r: harness.install_boundary(r, host))

    started = time.perf_counter()
    warmup = untraced_pass()
    untraced, traced = [], []
    while warmup.complete and _keep_going(started, len(traced), seconds, 1):
        untraced.append(untraced_pass())
        traced.append(one(layers, lambda r: harness.install_layers(r, host)))
        if not (untraced[-1].complete and traced[-1].complete):
            break
    passes = [warmup, *untraced, *traced]
    if not all(r.complete for r in passes):
        return passes, layers, None, None, None

    def work(passes, length):
        return sum(length(i) for r in passes for i in r.work)

    return (passes, layers, len(traced),
            work(traced, host.scaled_through) / work(traced, host.busy),
            work(traced, host.scaled_through) / work(untraced, host.scaled_through) - 1.0)


def main(argv=None) -> int:
    bench = load_bench()
    args = parse_args(argv, bench)
    if not (SRC / "maskterm" / "__init__.py").is_file():
        print(f"error: maskterm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # evaluate() shards across threads when this is set; measure the default
    os.environ.pop("MASKTERM_THREADS", None)

    import harness
    from workloads import WORKLOADS, input_properties, make_inputs

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wl = WORKLOADS[args.workload]
    train, heldout = make_inputs(wl, args.seed)

    host = HostSpeed()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        paths = (os.path.join(tmp, "train.jsonl"), os.path.join(tmp, "heldout.jsonl"))
        harness.corpus.write_examples(paths[0], train)
        harness.corpus.write_examples(paths[1], heldout)
        if args.trace:
            passes, layers, n_traced, scale, overhead = measure_traced(
                harness, wl, paths, args.seconds, host)
        else:
            passes = measure_untraced(harness, wl, paths, args.seconds, host)
    harness.check_repeatable(passes)
    complete = [r for r in passes if r.complete]

    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "passes": len(passes),
        "complete_passes": len(complete),
        "latency_samples": len(complete[0].calls) if complete else 0,
        "quality_f1": complete[0].quality_f1 if complete else None,
        "inputs": input_properties(wl, train, heldout),
        "problems": [p for r in passes for p in r.problems][:10],
        "probe_ms_median": 1e3 * statistics.median(host.seconds),
    }
    values = {}
    if args.trace and n_traced:
        values = harness.per_layer(layers, wl, n_traced, scale, overhead)
        detail["step_samples"] = len(harness.step_durations(layers))
        detail["spans"] = len(layers.spans)
        SPANS_OUT.mkdir(exist_ok=True)
        layers.write_jsonl(str(SPANS_OUT / f"spans-{wl.name}-{args.seed}.jsonl"))
    elif not args.trace and complete:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = harness.end_to_end(complete, host.scaled, peak_rss_mb)
        raw = harness.end_to_end(complete, host.busy, peak_rss_mb)
        detail["unscaled"] = {k: raw[k] for k in ("setup_s", "train_inst_per_s",
                                                   "eval_inst_per_s", "predict_ms_p50",
                                                   "predict_ms_p90")}

    failed = sum(r.failed for r in passes)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in passes),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
