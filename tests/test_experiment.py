"""The declarative ``Experiment`` sweeps, checked against the folds they
replaced.

Every runner-backed experiment runs here on a synthetic grid: the
runner's ``run_grid`` is swapped for a stand-in that returns seeded
random metrics (and, for the lenient sweeps, seeded failures) without
simulating anything.  Two things are pinned:

* **Specs** -- the exact spec list each experiment hands the runner,
  order included, as a digest.  It keeps run-cache keys, sweep ledgers
  and the perfbench grids unchanged.
* **Folds** -- the hand-written per-experiment folds that the generic
  fold replaced are kept below as the reference model; the rows,
  failure strings and verdict lines must match them exactly (floats
  compared with ``==``).
"""

import hashlib
import json
import random
from typing import Any, Dict, List

import pytest

from repro.cli import EXPERIMENTS, build_parser
from repro.experiments import (defenses_eval, dos_eval, drops, faults_eval,
                               figure5, runner, table1, table2)
from repro.experiments.evaluation import Table2Outcome, aggregate_table2
from repro.experiments.runner import (GridResult, RunCache, RunnerOptions,
                                      RunResult)

OPTIONS = RunnerOptions(cache=RunCache.disabled())

#: sha256 of the spec lists (all grids, in run order) each experiment
#: built at n=2 with its default axes, computed before the declarative
#: rewrite.
SPEC_DIGESTS = {
    "table1":
        "6fb4ab7ae09c56951e19b94ca4b735643a240dfd22d050ff42495a19c95e8ccb",
    "figure5":
        "a61583d254726f50e4f5c8ee641c75b5462d1d19f41ab059d6046becc7172dbc",
    "drops":
        "ec5207460d2355ab19c688ee7b097468f17d9765d3edbef1f5a865e8b984943d",
    "table2":
        "167c5ef97f02707621a0a8a035971572352c1053240995d4d3097d617ec63fe3",
    "defenses":
        "6f739b866ec4444f8471f2e310bc91fe1b1c87a66372f09017ce8f24bd1eec91",
    "faults":
        "8a79a85a5db92251617943382702e804484ccd4944d8dd1a972960e9f615c23d",
    "dos":
        "98822321cf15333d1320c7ed14cb00c31112444f94b88633c5e360aafdb3f8fa",
}

#: Entry point and load-count keyword of each experiment.
ENTRY = {
    "table1": (table1.run_table1, "n_per_point"),
    "figure5": (figure5.run_figure5, "n_per_point"),
    "drops": (drops.run_drops, "n_per_point"),
    "table2": (table2.run_table2, "n_loads"),
    "defenses": (defenses_eval.run_defenses, "n_per_defense"),
    "faults": (faults_eval.run_faults_eval, "n_per_point"),
    "dos": (dos_eval.run_dos_eval, "n_per_point"),
}


def _metrics(spec, rng: random.Random) -> Dict[str, Any]:
    """Plausible, edge-case-rich metrics for one synthetic cell."""
    p = spec.kwargs()
    flag = lambda: rng.random() < 0.5  # noqa: E731
    base = {"sim_time_s": rng.random(), "processed_events": rng.randrange(99)}
    if spec.fn == table1.CELL or spec.fn == figure5.CELL:
        # Table I's first jitter retransmits nothing, so its baseline is
        # clamped to 0.01; the last point never observes the HTML.
        blind = p.get("jitter_s") == 0.1 or p.get("bandwidth_bps") == 1e6
        base.update(nonmux=not blind and flag(), observed=not blind and flag(),
                    retransmissions=(0 if p.get("jitter_s") == 0.0
                                     else rng.randrange(40)),
                    broken=flag(), duration_s=rng.uniform(1, 20))
    elif spec.fn == drops.CELL:
        base.update(serialized=flag(), identified=flag(), reset=flag(),
                    broken=flag())
    elif spec.fn == table2.CELL:
        base["outcome"] = {
            "html_single": flag(), "html_all": flag(),
            "image_single": [flag() for _ in range(8)],
            "image_all": [flag() for _ in range(8)],
            "broken": flag(), "resets": rng.randrange(3)}
    elif spec.fn == table2.GAP_CELL:
        base["gaps_ms"] = [None if rng.random() < 0.3
                           else rng.uniform(0, 900) for _ in range(9)]
    elif spec.fn == defenses_eval.CELL:
        base.update(sequence_accuracy=rng.randrange(9) / 8,
                    html_identified=flag(), load_ok=flag())
    elif spec.fn == faults_eval.CELL:
        base.update(intensity=p["intensity"], serialized=flag(),
                    identified=flag(), broken=flag(), reset=flag(),
                    reconnects=rng.randrange(3),
                    stream_retries=rng.randrange(4),
                    faults_applied=rng.randrange(5),
                    size_error_bytes=(None if flag()
                                      else rng.randrange(2000)))
    elif spec.fn == dos_eval.CELL:
        base.update(kind=p["kind"], profile=p["profile"],
                    intensity=p["intensity"],
                    goodput_pct=rng.choice([100.0, 87.5, 33.3]),
                    exhausted=flag(), detected=rng.random() < 0.8,
                    detect_latency_s=(None if flag()
                                      else rng.uniform(0, 5)),
                    shed_connections=rng.randrange(2),
                    reaped_connections=rng.randrange(2))
    else:  # pragma: no cover - a new experiment needs metrics here
        raise AssertionError(spec.fn)
    return base


def _doomed(spec) -> bool:
    """Cells every lenient grid loses: one whole row each, plus a
    seeded scattering elsewhere."""
    p = spec.kwargs()
    if p.get("intensity") == 0.5 and spec.fn == faults_eval.CELL:
        return True
    if p.get("kind") == "ping_flood" and p.get("profile") == "open":
        return True
    return random.Random(spec.key("fail")).random() < 0.25


class SyntheticRunner:
    """Stands in for ``runner.run_grid``; records every grid it ran."""

    def __init__(self, fail_all: bool = False):
        self.grids: List[list] = []
        self.results: List[GridResult] = []
        self.fail_all = fail_all

    def __call__(self, specs, *, strict: bool = True, **_) -> GridResult:
        specs = list(specs)
        self.grids.append(specs)
        results = []
        for spec in specs:
            if not strict and (self.fail_all or _doomed(spec)):
                results.append(RunResult(spec, {}, 0.0, 0.0, 0, False,
                                         error="synthetic: worker died"))
                continue
            metrics = _metrics(spec, random.Random(spec.key("synthetic")))
            results.append(RunResult(spec, metrics, 0.0,
                                     metrics["sim_time_s"],
                                     metrics["processed_events"], False))
        self.results.append(GridResult(results))
        return self.results[-1]


@pytest.fixture
def synthetic(monkeypatch):
    fake = SyntheticRunner()
    monkeypatch.setattr(runner, "run_grid", fake)
    return fake


def _run(name: str, n: int, **options):
    entry, count = ENTRY[name]
    return entry(**{count: n}, runner=OPTIONS, **options)


# -- specs -------------------------------------------------------------------

def spec_digest(grids: List[list]) -> str:
    payload = [[spec.to_dict() for spec in specs] for specs in grids]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SPEC_DIGESTS))
def test_specs_match_the_pinned_grid(name, synthetic):
    _run(name, 2)
    assert spec_digest(synthetic.grids) == SPEC_DIGESTS[name]


# -- folds: the hand-written folds the declarations replaced ----------------

def ref_table1(grid, n, jitter_values=table1.JITTER_VALUES_S, **_):
    by_jitter: Dict[float, List[dict]] = {j: [] for j in jitter_values}
    for result in grid:
        by_jitter[result.spec.kwargs()["jitter_s"]].append(result.metrics)
    rows, baseline_retx = [], None
    for jitter in jitter_values:
        cells = by_jitter[jitter]
        nonmux = sum(c["nonmux"] for c in cells)
        observed = sum(c["observed"] for c in cells)
        mean_retx = sum(c["retransmissions"] for c in cells) / n
        if baseline_retx is None:
            baseline_retx = max(mean_retx, 0.01)
            increase = 0.0
        else:
            increase = 100.0 * (mean_retx - baseline_retx) / baseline_retx
        rows.append(dict(
            jitter_s=jitter, nonmux_pct=100.0 * nonmux / max(1, observed),
            mean_retransmissions=mean_retx, retx_increase_pct=increase,
            broken_pct=100.0 * sum(c["broken"] for c in cells) / n))
    return rows


def ref_figure5(grid, n, bandwidths=figure5.BANDWIDTH_VALUES_BPS, **_):
    by_bandwidth: Dict[float, List[dict]] = {b: [] for b in bandwidths}
    for result in grid:
        by_bandwidth[result.spec.kwargs()["bandwidth_bps"]].append(
            result.metrics)
    rows = []
    for bandwidth in bandwidths:
        cells = by_bandwidth[bandwidth]
        nonmux = sum(c["nonmux"] for c in cells)
        observed = sum(c["observed"] for c in cells)
        rows.append(dict(
            bandwidth_bps=bandwidth,
            nonmux_pct=100.0 * nonmux / max(1, observed),
            mean_retransmissions=sum(c["retransmissions"]
                                     for c in cells) / n,
            broken_pct=100.0 * sum(c["broken"] for c in cells) / n,
            mean_duration_s=sum(c["duration_s"] for c in cells) / n))
    return rows


def ref_drops(grid, n, drop_rates=(0.5, 0.8, 0.95), **_):
    by_rate: Dict[float, List[dict]] = {r: [] for r in drop_rates}
    for result in grid:
        by_rate[result.spec.kwargs()["drop_rate"]].append(result.metrics)
    return [dict(
        drop_rate=rate,
        html_serialized_pct=100.0 * sum(c["serialized"]
                                        for c in by_rate[rate]) / n,
        html_identified_pct=100.0 * sum(c["identified"]
                                        for c in by_rate[rate]) / n,
        reset_happened_pct=100.0 * sum(c["reset"] for c in by_rate[rate]) / n,
        broken_pct=100.0 * sum(c["broken"] for c in by_rate[rate]) / n,
    ) for rate in drop_rates]


def ref_defenses(grid, n, defenses=defenses_eval.DEFENSES, **_):
    by_defense: Dict[str, List[dict]] = {d: [] for d in defenses}
    for result in grid:
        by_defense[result.spec.kwargs()["defense"]].append(result.metrics)
    return [dict(
        defense=defense,
        sequence_accuracy_pct=100.0 * sum(c["sequence_accuracy"]
                                          for c in by_defense[defense]) / n,
        html_identified_pct=100.0 * sum(c["html_identified"]
                                        for c in by_defense[defense]) / n,
        load_success_pct=100.0 * sum(c["load_ok"]
                                     for c in by_defense[defense]) / n,
    ) for defense in defenses]


def ref_table2(grid, n, gaps=None, **_):
    aggregated = aggregate_table2([Table2Outcome(**m["outcome"])
                                   for m in grid.metrics()])
    sums, counts = [0.0] * 9, [0] * 9
    for metrics in gaps.metrics():
        for slot, gap in enumerate(metrics["gaps_ms"]):
            if gap is None:
                continue
            sums[slot] += gap
            counts[slot] += 1
    return [dict(
        n_ok=aggregated["n"], single_pct=aggregated["single"],
        all_pct=aggregated["all"], broken_pct=aggregated["broken_pct"],
        mean_resets=aggregated["mean_resets"],
        gap_prev_ms=[sums[i] / counts[i] if counts[i] else 0.0
                     for i in range(9)])]


def ref_faults(grid, n, intensities=(0.0, 0.25, 0.5, 1.0), **_):
    by_intensity: Dict[float, List[dict]] = {i: [] for i in intensities}
    attempted: Dict[float, int] = {i: 0 for i in intensities}
    failures = []
    for result in grid:
        intensity = result.spec.kwargs()["intensity"]
        attempted[intensity] += 1
        if result.failed:
            failures.append(f"intensity={intensity} "
                            f"seed={result.spec.seed}: {result.error}")
        else:
            by_intensity[intensity].append(result.metrics)
    rows = []
    for intensity in intensities:
        cells = by_intensity[intensity]
        m = max(1, len(cells))
        errors = [c["size_error_bytes"] for c in cells
                  if c["size_error_bytes"] is not None]
        rows.append(dict(
            intensity=intensity,
            html_serialized_pct=100.0 * sum(c["serialized"]
                                            for c in cells) / m,
            html_identified_pct=100.0 * sum(c["identified"]
                                            for c in cells) / m,
            broken_pct=100.0 * sum(c["broken"] for c in cells) / m,
            mean_reconnects=sum(c["reconnects"] for c in cells) / m,
            mean_stream_retries=sum(c["stream_retries"] for c in cells) / m,
            mean_size_error_bytes=(sum(errors) / len(errors)
                                   if errors else 0.0),
            n_ok=len(cells), n_cells=attempted[intensity]))
    return rows, failures


def ref_dos(grid, n, **_):
    by_point: Dict[tuple, List[dict]] = {}
    attempted: Dict[tuple, int] = {}
    failures = []
    for result in grid:
        kwargs = result.spec.kwargs()
        key = (kwargs["kind"], kwargs["profile"], kwargs["intensity"])
        attempted[key] = attempted.get(key, 0) + 1
        if result.failed:
            failures.append(f"kind={key[0]} profile={key[1]} "
                            f"intensity={key[2]} "
                            f"seed={result.spec.seed}: {result.error}")
        else:
            by_point.setdefault(key, []).append(result.metrics)
    rows = []
    for key in sorted(attempted):
        cells = by_point.get(key, [])
        m = max(1, len(cells))
        latencies = [c["detect_latency_s"] for c in cells
                     if c["detect_latency_s"] is not None]
        rows.append(dict(
            kind=key[0], profile=key[1], intensity=key[2],
            mean_goodput_pct=sum(c["goodput_pct"] for c in cells) / m,
            detected_pct=100.0 * sum(c["detected"] for c in cells) / m,
            mean_detect_latency_s=(sum(latencies) / len(latencies)
                                   if latencies else None),
            exhausted_pct=100.0 * sum(c["exhausted"] for c in cells) / m,
            mean_shed=sum(c["shed_connections"] for c in cells) / m,
            mean_reaped=sum(c["reaped_connections"] for c in cells) / m,
            n_ok=len(cells), n_cells=attempted[key]))
    return rows, failures


def ref_dos_verdicts(rows, intensities=(0.5, 1.0)) -> List[str]:
    top = max(intensities) if intensities else 0.0
    attack = [p for p in rows if p["kind"] != dos_eval.CONTROL_KIND]
    controls = [p for p in rows if p["kind"] == dos_eval.CONTROL_KIND]
    flagged = [p for p in attack if p["detected_pct"] >= 100.0]
    false_pos = [p for p in controls if p["detected_pct"] > 0.0]
    min_goodput = min((p["mean_goodput_pct"] for p in attack
                       if p["profile"] == "hardened"), default=0.0)
    exhaust = [p for p in attack
               if p["profile"] == "open" and p["intensity"] == top]
    exhausted = [p for p in exhaust if p["exhausted_pct"] >= 100.0]
    return [
        f"dos: attack cells flagged: "
        f"{'ALL' if len(flagged) == len(attack) else 'MISSING'} "
        f"({len(flagged)}/{len(attack)})",
        f"dos: control false positives: "
        f"{'NONE' if not false_pos else 'FOUND'} "
        f"({len(false_pos)}/{len(controls)})",
        f"dos: hardened goodput >= 90%: "
        f"{'PASS' if min_goodput >= 90.0 else 'FAIL'} "
        f"(min {min_goodput:.1f}%)",
        f"dos: unhardened exhaustion: "
        f"{'ALL' if len(exhausted) == len(exhaust) else 'MISSING'} "
        f"({len(exhausted)}/{len(exhaust)})"]


REFERENCE = {"table1": ref_table1, "figure5": ref_figure5,
             "drops": ref_drops, "table2": ref_table2,
             "defenses": ref_defenses, "faults": ref_faults,
             "dos": ref_dos}


def _row_fields(row, reference: Dict[str, Any]) -> Dict[str, Any]:
    return {field: getattr(row, field) for field in reference}


@pytest.mark.parametrize("name, options", [
    ("table1", {}),
    ("table1", {"style": "netem"}),
    ("table1", {"jitter_values": (0.05, 0.025, 0.1)}),
    ("figure5", {}),
    ("figure5", {"bandwidths": (1e6, 800e6), "jitter_s": 0.025}),
    ("drops", {}),
    ("table2", {}),
    ("defenses", {}),
    ("defenses", {"defenses": ("push", "none")}),
    ("faults", {}),
    ("dos", {}),
    ("dos", {"intensities": (1.0, 0.25), "kinds": ("slow_post",
                                                   "ping_flood")}),
])
def test_generic_fold_matches_the_hand_written_one(name, options,
                                                    synthetic):
    n = 3
    result = _run(name, n, **options)
    grid = synthetic.results[0]
    expected_failures: List[str] = []
    if name == "table2":
        expected = ref_table2(grid, n, gaps=synthetic.results[1])
    elif name in ("faults", "dos"):
        expected, expected_failures = REFERENCE[name](grid, n, **options)
        assert expected_failures, "the lenient grids must lose cells"
    else:
        expected = REFERENCE[name](grid, n, **options)
    assert [_row_fields(row, ref) for row, ref
            in zip(result.points, expected)] == expected
    assert len(result.points) == len(expected)
    assert result.failures == expected_failures
    if name == "dos":
        assert result.verdict_lines() == ref_dos_verdicts(
            expected, options.get("intensities", (0.5, 1.0)))
    if name == "table1" and "jitter_values" not in options:
        # The baseline retransmits nothing: increases are taken
        # against the 0.01 clamp.
        assert result.points[0].mean_retransmissions == 0.0
        assert result.points[1].retx_increase_pct > 1e4
    if name == "figure5" and "bandwidths" not in options:
        assert result.points[-1].nonmux_pct == 0.0  # observed == 0


# -- verdict checks over zero cells ------------------------------------------

def test_check_over_zero_cells_never_prints_its_pass_word(monkeypatch):
    fake = SyntheticRunner(fail_all=True)
    monkeypatch.setattr(runner, "run_grid", fake)
    for result in (dos_eval.run_dos_eval(n_per_point=1, runner=OPTIONS),
                   dos_eval.run_dos_eval(n_per_point=1, profiles=(),
                                         runner=OPTIONS)):
        lines = result.verdict_lines()
        assert len(lines) == 4
        for line in lines:
            assert ": EMPTY (" in line, line
            assert not any(word in line.split(": ")[2]
                           for word in ("ALL", "NONE", "PASS"))


# -- CLI: one registry; nonsense runner input is a usage error ---------------

def test_registry_keeps_every_command_and_default_n():
    parser = build_parser()
    assert {command: parser.parse_args([command]).loads
            for command in EXPERIMENTS} == {
        "table1": 30, "figure5": 20, "drops": 25, "table2": 40,
        "defenses": 15, "faults": 20, "dos": 2}


@pytest.mark.parametrize("argv, message", [
    (["table1", "-n", "0"], "argument -n/--loads: must be >= 1, got 0"),
    (["drops", "-n", "-2"], "argument -n/--loads: must be >= 1, got -2"),
    (["table2", "--loads", "0"], "argument -n/--loads: must be >= 1"),
    (["dos", "-n", "0"], "argument -n/--loads: must be >= 1"),
    (["baseline", "-n", "0"], "argument -n/--loads: must be >= 1"),
    (["figure5", "--jobs", "0"], "argument -j/--jobs: must be >= 1"),
    (["chaos", "-j", "-1"], "argument -j/--jobs: must be >= 1"),
    (["defenses", "--retries", "-1"], "argument --retries: must be >= 0"),
    (["faults", "--cell-timeout", "0"],
     "argument --cell-timeout: must be > 0"),
    (["table1", "--cell-timeout", "-3"], "argument --cell-timeout: must be"),
    (["table1", "--cell-timeout", "nan"], "argument --cell-timeout: must be"),
    (["table1", "-n", "x"], "argument -n/--loads: invalid int value: 'x'"),
])
def test_nonsense_runner_input_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("usage:") and "Traceback" not in err


def test_smallest_sensible_runner_input_parses():
    args = build_parser().parse_args(
        ["dos", "-n", "1", "--jobs", "1", "--retries", "0",
         "--cell-timeout", "0.5"])
    assert (args.loads, args.jobs, args.retries, args.cell_timeout) == \
        (1, 1, 0, 0.5)
    assert build_parser().parse_args(["chaos", "--seeds", "1"]).seeds == 1
