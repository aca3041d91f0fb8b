"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload attack_serial --seed 1 \\
        --seconds 10 --trace 0

With ``--trace 0`` the timed region runs whole passes over the
workload's items until ``--seconds`` have elapsed and reports the
end-to-end metrics.  With ``--trace 1`` it runs one untraced pass and
one traced pass and reports the per-layer metrics.  Either way the last
line of standard output is one JSON object; the lines before it are a
readable table with each metric's sample count.  Metric names and
units come from ``BENCHMARK.json`` at the checkout root.

``--write-reference`` instead runs one pass and stores its output
digests as the workload's reference in ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import clock

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of every run (inputs, caches, traces); emptied per run.
WORK = ROOT / ".perfbench-work"
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def parse_args(argv: List[str], names: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def import_program():
    """Put this checkout's ``src`` first on the path and import the
    workloads; refuse to run against any other copy of ``repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro
    import workloads
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")
    return workloads


def quantile(samples: List[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timed_pass(workload, state, index: int, tracer=None):
    """One pass and its stopwatch.  The pass ends with a full garbage
    collection, so each pass pays for its own cyclic garbage instead of
    whichever later pass happens to trigger the collector."""
    watch = clock.Stopwatch(workload.cpus)
    raw = workload.run_pass(state, index, watch, tracer)
    gc.collect()
    watch.lap()
    return raw, watch


def untraced(workload, state, seconds: float, reference):
    """Whole passes until ``seconds`` of wall time have been timed."""
    raws, watches = [], []
    while sum(w.wall_s for w in watches) < seconds:
        raw, watch = timed_pass(workload, state, len(raws))
        raws.append(raw)
        watches.append(watch)
    return [workload.check(state, raw, reference) for raw in raws], watches


def end_to_end(passes, watches, setup_s: float) -> Dict[str, Tuple]:
    """metric -> (value, sample count); times in reference seconds."""
    items = sum(p.items for p in passes)
    samples = [s * 1000.0 for p in passes for s in p.item_s]
    return {
        "items_per_s": (items / sum(w.reference_s for w in watches), items),
        "item_ms_p50": (quantile(samples, 50), len(samples)),
        "item_ms_p90": (quantile(samples, 90), len(samples)),
        "setup_s": (setup_s, SETUP_REPEATS),
        "peak_rss_mb": (clock.peak_rss_mb(), 1),
    }


def traced(workload, state, spans, reference):
    """One untraced and one traced pass; returns both checked passes,
    their times in reference seconds and the tracer."""
    plain, plain_watch = timed_pass(workload, state, 0)
    spool = state_dir(workload) / "spool"
    spool.mkdir(parents=True)
    tracer = spans.Tracer(spool)
    patches = spans.instrument(tracer)
    try:
        raw, traced_watch = timed_pass(workload, state, 1, tracer)
    finally:
        spans.restore(patches)
    tracer.absorb_spool()
    return (workload.check(state, plain, reference), plain_watch.reference_s,
            workload.check(state, raw, reference), traced_watch.reference_s,
            tracer)


def per_layer(tracer, plain, plain_s: float, run, run_s: float
              ) -> Dict[str, Tuple]:
    """metric -> (value, sample count) from the traced pass ``run``;
    dispatch numbers come from the untraced pass ``plain``."""
    per = tracer.per_name()
    counts = tracer.counts
    items = run.items

    def self_s(*names: str) -> Tuple[float, int]:
        return (sum(per.get(n, (0.0, 0))[0] for n in names),
                sum(per.get(n, (0.0, 0))[1] for n in names))

    def calls(name: str) -> Tuple[int, int]:
        count = per.get(name, (0.0, 0))[1]
        return count, count

    def count(name: str) -> Tuple[float, int]:
        return counts.get(name, 0), items

    scheduled = counts.get("simnet.scheduled", 0)
    reports = counts.get("core.reports", 0)
    identified = run.layer.get("core.html_identified_ratio")
    if identified is None:
        identified = (counts.get("core.html_identified", 0) / reports
                      if reports else 0.0)
    layer = {
        "simnet.events_per_item":
            (run.layer.get("simnet.events", 0) / items, items),
        "simnet.scheduled_per_item": (scheduled / items, items),
        "simnet.cancelled_ratio":
            (counts.get("simnet.cancelled", 0) / scheduled
             if scheduled else 0.0, scheduled),
        "simnet.run_self_s": self_s("simnet.run"),
        "simnet.link_send_s": self_s("simnet.link_send"),
        "simnet.link_sends": calls("simnet.link_send"),
        "simnet.policy_s": self_s("simnet.policy"),
        "simnet.capture_s": self_s("simnet.capture"),
        "simnet.trace_query_s": self_s("simnet.trace_query"),
        "simnet.export_load_s": self_s("simnet.export_load"),
        "tcp.handle_segment_s": self_s("tcp.handle_packet",
                                       "tcp.handle_segment"),
        "tcp.segments": calls("tcp.handle_segment"),
        "tcp.retransmits": count("tcp.retransmits"),
        "tls.send_s": self_s("tls.send"),
        "tls.records": calls("tls.send"),
        "http2.frame_s": self_s("http2.frame"),
        "http2.frames_sent": count("http2.frames_sent"),
        "http2.duplicate_serves": count("http2.duplicate_serves"),
        "http2.resets_received": count("http2.resets_received"),
        "browser.requests": count("browser.requests"),
        "browser.resets": count("browser.resets"),
        "core.tap_s": self_s("core.tap"),
        "core.report_s": self_s("core.report"),
        "core.estimate_s": self_s("core.estimate"),
        "core.deinterleave_s": self_s("core.deinterleave"),
        "core.predict_s": self_s("core.predict"),
        "core.html_identified_ratio": (identified, items),
        "analysis.features_s": self_s("analysis.features"),
        "analysis.fit_s": self_s("analysis.fit"),
        "analysis.predict_s": self_s("analysis.predict"),
        "analysis.cv_accuracy": (run.layer.get("analysis.cv_accuracy", 0.0),
                                 items),
        "experiments.dispatch_s_per_cell":
            (plain.layer.get("experiments.dispatch_s_per_cell", 0.0),
             plain.items),
        "experiments.parallel_efficiency":
            (plain.layer.get("experiments.parallel_efficiency", 0.0),
             plain.items),
        "experiments.cache_put_s": self_s("experiments.cache_put"),
        "experiments.cache_hit_ratio":
            (max(plain.layer.get("experiments.cache_hit_ratio", 0.0),
                 run.layer.get("experiments.cache_hit_ratio", 0.0)),
             plain.items + items),
        "experiments.worker_respawns":
            (plain.layer.get("experiments.worker_respawns", 0)
             + run.layer.get("experiments.worker_respawns", 0),
             plain.items + items),
        "lint.parse_s": self_s("lint.parse"),
        "lint.project_s": self_s("lint.project"),
        "lint.module_rules_s": self_s("lint.module_rules"),
        "lint.project_rules_s": self_s("lint.project_rules"),
        "lint.taint_s": self_s("lint.taint"),
        "lint.functions": (run.layer.get("lint.functions", 0), 1),
        "lint.findings": (run.layer.get("lint.findings", 0), 1),
        "trace_overhead_ratio": (run_s / plain_s, 2),
    }
    return layer


def state_dir(workload) -> Path:
    return WORK / workload.name


def report(declared, measured: Dict[str, Tuple], passes, extra) -> Dict:
    """Print the readable table; return the JSON line's ``metrics``."""
    missing = sorted(set(declared) ^ set(measured))
    if missing:
        raise SystemExit(f"perfbench: metrics not matching BENCHMARK.json: "
                         f"{missing}")
    print(f"{'metric':<36} {'value':>14}  {'unit':<10} samples")
    for name, unit in declared.items():
        value, samples = measured[name]
        print(f"{name:<36} {value:>14.6g}  {unit:<10} {samples}")
    for name, (value, unit, samples) in extra.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<36} {shown:>14}  {unit:<10} {samples}")
    for problem in [p for result in passes for p in result.problems][:10]:
        print(f"FAILED: {problem}")
    return {name: {"value": measured[name][0], "unit": unit}
            for name, unit in declared.items()}


def write_reference(workloads, workload, state) -> None:
    result = workload.check(
        state, workload.run_pass(state, 0, clock.Stopwatch()), {})
    reference = workloads.load_reference()
    entry = result.digests
    if workload.name == "lint_selfcheck":
        entry = {"files": result.items, "corpus": state.manifest,
                 "findings": {path: found for path, found
                              in result.digests.items() if found}}
    reference[workload.name] = entry
    workloads.REFERENCE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(result.digests)} reference digests for "
          f"{workload.name}; {result.failed} items failed")


def main(argv: List[str]) -> int:
    watch = clock.Stopwatch()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in declared["workloads"]])
    workloads = import_program()
    import spans
    workload = workloads.WORKLOADS[args.workload]
    shutil.rmtree(state_dir(workload), ignore_errors=True)
    imports_s = watch.lap()[1]
    setups = []
    for repeat in range(SETUP_REPEATS):
        state = workload.setup(state_dir(workload) / f"setup-{repeat}",
                               args.seed)
        setups.append(watch.lap()[1])
    setup_s = imports_s + statistics.median(setups)
    if args.write_reference:
        write_reference(workloads, workload, state)
        return 0

    reference = workloads.load_reference().get(workload.name, {})
    extra = {}
    if args.trace:
        plain, plain_s, run, run_s, tracer = traced(workload, state, spans,
                                                    reference)
        passes = [plain, run]
        measured = per_layer(tracer, plain, plain_s, run, run_s)
        tracer.write(state_dir(workload) / "trace")
        section = "per_layer"
    else:
        passes, watches = untraced(workload, state, args.seconds, reference)
        measured = end_to_end(passes, watches, setup_s)
        wall = sum(w.wall_s for w in watches)
        extra["items_per_wall_s"] = (sum(p.items for p in passes) / wall,
                                     "1/s", sum(p.items for p in passes))
        section = "end_to_end"
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    paper = [p.paper_error_pp for p in passes if p.paper_error_pp is not None]
    extra["failure_ratio"] = (failed / attempted, "ratio", attempted)
    extra["paper_error_pp"] = (paper[0] if paper else None, "pp", len(paper))
    metrics = report({m["name"]: m["unit"] for m in declared[section]},
                     measured, passes, extra)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
