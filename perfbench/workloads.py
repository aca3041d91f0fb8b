"""The benchmark's four workloads.

Each workload has a fixed item set, so its outputs can be pinned by a
committed reference digest; the ``--seed`` fixes the order in which the
items are run.  A workload is driven in three steps: ``setup`` builds
its inputs in a fresh directory, ``run_pass`` runs every item once (the
timed region; it returns raw outputs only), and ``check`` compares a
pass's outputs with the reference and folds them into a
:class:`PassResult` after timing has stopped.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tarfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import clock
from repro.analysis import crossval
from repro.analysis.features import TraceFeatureExtractor
from repro.core.deinterleave import PartialMultiplexAnalyzer
from repro.core.estimator import SizeEstimator
from repro.core.phases import AttackConfig, jitter_only_config
from repro.core.predictor import ObjectPredictor, SizeIdentityMap
from repro.experiments import runner, table1, table2
from repro.experiments.evaluation import Table2Outcome, aggregate_table2
from repro.experiments.fingerprinting import CLASSIFIERS
from repro.experiments.session import SessionConfig, run_session
from repro.lint import engine, families, typestate
from repro.lint.suppressions import apply_suppressions
from repro.simnet import export
from repro.simnet.middlebox import SERVER_TO_CLIENT
from repro.website.isidewith import HTML_SIZE

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
CORPUS = HERE / "corpus" / "repro-src.tar.gz"

#: Pool size of ``sweep_pool``: two workers, or one on a one-core host.
POOL_WORKERS = min(2, os.cpu_count() or 1)


def digest(value: Any) -> str:
    """Short content hash of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference() -> Dict[str, Any]:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


@dataclass
class PassResult:
    """One pass, checked and folded."""

    items: int
    #: Reference seconds of each item (the ``item_ms_*`` samples).
    item_s: List[float]
    failed: int = 0
    #: First few reasons an item failed.
    problems: List[str] = field(default_factory=list)
    #: Per-layer numbers this pass measured or counted.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Mean absolute gap to the paper's values, percentage points.
    paper_error_pp: Optional[float] = None
    #: Actual outputs keyed like the reference (``--write-reference``).
    digests: Dict[str, Any] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(reason)


# -- the two grid workloads ----------------------------------------------------

def _cell_key(spec: runner.RunSpec) -> str:
    name = spec.fn.partition(":")[0].rpartition(".")[2]
    params = ",".join(f"{key}={value}" for key, value in spec.params)
    return f"{name}:{spec.seed}" + (f":{params}" if params else "")


@dataclass
class GridState:
    specs: List[runner.RunSpec]
    workdir: Path


class GridWorkload:
    """A paper grid run through ``run_grid`` with a cold cache."""

    name = ""
    workers: Optional[int] = None
    #: Processes the host-speed probe runs in: as many as the pass keeps busy.
    cpus = 1
    #: Cells per ``run_grid`` call; None runs the whole grid in one call.
    chunk: Optional[int] = None

    def universe(self) -> List[runner.RunSpec]:
        raise NotImplementedError

    def paper_error_pp(self, results: List[runner.RunResult]) -> float:
        raise NotImplementedError

    def setup(self, workdir: Path, seed: int) -> GridState:
        specs = self.universe()
        random.Random(seed).shuffle(specs)
        # Hash the package source now, not inside the first timed grid.
        runner.code_version()
        workdir.mkdir(parents=True)
        return GridState(specs=specs, workdir=workdir)

    def run_pass(self, state: GridState, index: int, watch: clock.Stopwatch,
                 tracer=None):
        """Run the grid, ``chunk`` cells per ``run_grid`` call, timing
        each call as one segment; returns (grid, reference/wall) pairs."""
        if tracer is not None:
            tracer.item_ids = {spec: i for i, spec in enumerate(state.specs)}
        # A fresh cache directory per pass: every cell must execute.
        cache = runner.RunCache(root=state.workdir / f"cache-{index}")
        chunk = self.chunk or len(state.specs)
        grids = []
        for start in range(0, len(state.specs), chunk):
            grid = runner.run_grid(state.specs[start:start + chunk], jobs=1,
                                   workers=self.workers, cache=cache,
                                   strict=False)
            wall, reference = watch.lap()
            grids.append((grid, reference / wall))
        return grids

    def check(self, state: GridState, grids, reference: Dict[str, str]
              ) -> PassResult:
        cells = [(cell, scale) for grid, scale in grids for cell in grid]
        result = PassResult(items=len(cells),
                            item_s=[c.wall_time_s * s for c, s in cells])
        executed = sum(grid.executed for grid, _ in grids)
        for _ in range(len(state.specs) - executed):
            result.fail("cell recalled from a cache instead of run")
        for cell, _ in cells:
            key = _cell_key(cell.spec)
            result.digests[key] = digest(cell.metrics)
            if cell.failed:
                result.fail(f"{key}: {cell.error}")
            elif reference.get(key) != result.digests[key]:
                result.fail(f"{key}: output differs from the reference")
        workers = self.workers or 1
        cell_wall = sum(grid.wall_time_s for grid, _ in grids)
        elapsed = sum(grid.elapsed_s for grid, _ in grids)
        result.layer = {
            "simnet.events": sum(grid.processed_events for grid, _ in grids),
            "experiments.dispatch_s_per_cell":
                (elapsed * workers - cell_wall) / len(cells),
            "experiments.parallel_efficiency":
                cell_wall / (elapsed * workers),
            "experiments.cache_hit_ratio":
                sum(grid.cache_hits for grid, _ in grids) / len(cells),
            "experiments.worker_respawns":
                sum(grid.worker_stats.respawned for grid, _ in grids
                    if grid.worker_stats is not None),
        }
        result.paper_error_pp = self.paper_error_pp(
            [cell for cell, _ in cells if not cell.failed])
        return result


def _mean_abs(pairs: List[Tuple[float, float]]) -> float:
    return sum(abs(a - b) for a, b in pairs) / len(pairs)


class AttackSerial(GridWorkload):
    """Table II cells plus the Sec. IV-D drop burst at 50% and 95%."""

    name = "attack_serial"
    #: Serial grids cost nothing to split, and a short segment lets the
    #: host-speed probe track the host closely.
    chunk = 5
    TABLE2_CELLS = 60
    DROP_CELLS = 20
    DROP_RATES = (0.5, 0.95)

    def universe(self) -> List[runner.RunSpec]:
        specs = [runner.RunSpec.make(table2.CELL, seed)
                 for seed in range(self.TABLE2_CELLS)]
        specs += [runner.RunSpec.make("repro.experiments.drops:run_cell",
                                      seed, drop_rate=rate)
                  for rate in self.DROP_RATES
                  for seed in range(self.DROP_CELLS)]
        return specs

    def paper_error_pp(self, results: List[runner.RunResult]) -> float:
        outcomes = [Table2Outcome(**r.metrics["outcome"]) for r in results
                    if r.spec.fn == table2.CELL]
        table = aggregate_table2(outcomes)
        return _mean_abs(list(zip(table["single"], table2.PAPER_SINGLE))
                         + list(zip(table["all"], table2.PAPER_ALL)))


class SweepPool(GridWorkload):
    """Table I (both jitter styles) and Fig. 5 on the worker pool."""

    name = "sweep_pool"
    workers = POOL_WORKERS
    cpus = POOL_WORKERS
    chunk = 26
    PER_POINT = 8
    FIG5_JITTER_S = 0.05
    FIG5_BANDWIDTHS = (1000e6, 800e6, 500e6, 100e6, 1e6)

    def universe(self) -> List[runner.RunSpec]:
        specs = [runner.RunSpec.make(table1.CELL, seed, jitter_s=jitter,
                                     style=style)
                 for style in ("spacing", "netem")
                 for jitter in table1.JITTER_VALUES_S
                 for seed in range(self.PER_POINT)]
        specs += [runner.RunSpec.make("repro.experiments.figure5:run_cell",
                                      seed, jitter_s=self.FIG5_JITTER_S,
                                      bandwidth_bps=bandwidth)
                  for bandwidth in self.FIG5_BANDWIDTHS
                  for seed in range(self.PER_POINT)]
        return specs

    def paper_error_pp(self, results: List[runner.RunResult]) -> float:
        """Table I's two columns, folded as ``run_table1`` folds them.
        Fig. 5 has no numeric paper values in the repository."""
        pairs: List[Tuple[float, float]] = []
        for style in ("spacing", "netem"):
            baseline = None
            for jitter in table1.JITTER_VALUES_S:
                cells = [r.metrics for r in results
                         if r.spec.fn == table1.CELL
                         and r.spec.kwargs() == {"jitter_s": jitter,
                                                 "style": style}]
                observed = sum(c["observed"] for c in cells)
                nonmux = 100.0 * sum(c["nonmux"] for c in cells) / max(
                    1, observed)
                pairs.append((nonmux, table1.PAPER_NONMUX_PCT[jitter]))
                mean_retx = sum(c["retransmissions"] for c in cells) / len(
                    cells)
                if baseline is None:
                    baseline = max(mean_retx, 0.01)
                    continue
                increase = 100.0 * (mean_retx - baseline) / baseline
                pairs.append((increase,
                              table1.PAPER_RETX_INCREASE_PCT[jitter]))
        return _mean_abs(pairs)


# -- capture_replay ------------------------------------------------------------

@dataclass
class Capture:
    """One saved capture plus what the adversary knows about it."""

    key: str
    path: Path
    census: List[int]
    #: object size -> label: the adversary's pre-compiled identity map.
    size_map: Dict[int, str]
    tolerance: int
    #: Attack phase -> sim time, as the adversary recorded it.
    phase_times: Dict[str, float]
    #: Training label for the classifiers (the capture's gateway mode).
    label: str


@dataclass
class ReplayState:
    captures: List[Capture]
    #: capture key -> the session's online predicted labels (or None);
    #: kept for the check, never given to the replay.
    online: Dict[str, Optional[List[str]]]
    #: Capture index of each item, in run order.
    order: List[int]


def replay(capture: Capture) -> Dict[str, Any]:
    """The adversary's offline pipeline over one saved capture, as
    ``Http2SerializationAttack.report`` runs it online."""
    trace = export.load_trace(capture.path)
    size_map = SizeIdentityMap(capture.size_map, tolerance=capture.tolerance)
    estimates = SizeEstimator().estimate_from_trace(trace)
    start = capture.phase_times.get("serialize")
    window = (estimates if start is None
              else [e for e in estimates if e.end_time >= start])
    records = [r for r in trace.completed_records(SERVER_TO_CLIENT)
               if r.end_time >= (start or 0.0)]
    partial = [size_map.identify(m.size) for m in
               PartialMultiplexAnalyzer(capture.census).analyze(records)
               if m.confident]
    partial = [label for label in partial if label is not None]
    predictor = ObjectPredictor(size_map)
    parties = [label for label in size_map.labels if label != "html"]
    burst = [p.label for p in predictor.predict_burst(window, parties)]
    html = [p.label for p in predictor.predict(window) if p.label == "html"]
    if not html and "html" in partial:
        html = ["html"]
    features = TraceFeatureExtractor().extract(trace)
    return {"labels": html[:1] + burst,
            "sizes": [e.size for e in estimates],
            "partial": partial,
            "features": [round(float(x), 6) for x in features]}


class CaptureReplay:
    """Offline replay of saved captures, then classifier CV."""

    name = "capture_replay"
    cpus = 1
    #: (gateway mode, session seeds); four captures of each mode.
    MODES = (("attack", range(4)), ("jitter", range(4)), ("clean", range(4)))
    REPLAYS_PER_CAPTURE = 9
    FOLDS = 4

    def setup(self, workdir: Path, seed: int) -> ReplayState:
        workdir.mkdir(parents=True)
        captures: List[Capture] = []
        online: Dict[str, Optional[List[str]]] = {}
        for mode, seeds in self.MODES:
            attack = {"attack": AttackConfig(),
                      "jitter": jitter_only_config(0.05)}.get(mode)
            for session_seed in seeds:
                result = run_session(SessionConfig(seed=session_seed,
                                                   attack=attack))
                key = f"{mode}-{session_seed}"
                path = workdir / f"{key}.jsonl"
                export.save_trace(result.trace, path)
                size_map = {HTML_SIZE: "html"}
                size_map.update(result.site.party_size_map())
                report = result.report
                captures.append(Capture(
                    key=key, path=path,
                    census=[o.size for o in result.site.objects.values()],
                    size_map=size_map,
                    tolerance=AttackConfig().size_tolerance,
                    phase_times=dict(report.phase_times) if report else {},
                    label=mode))
                online[key] = (list(report.predicted_labels)
                               if report else None)
        order = [i for i in range(len(captures))
                 for _ in range(self.REPLAYS_PER_CAPTURE)]
        random.Random(seed).shuffle(order)
        return ReplayState(captures=captures, online=online, order=order)

    def run_pass(self, state: ReplayState, index: int,
                 watch: clock.Stopwatch, tracer=None):
        """Each replay is one timed segment; the CV is the last one."""
        outputs = []
        for item, capture_index in enumerate(state.order):
            with tracer.item_span(item) if tracer else nullcontext():
                output = replay(state.captures[capture_index])
            outputs.append((capture_index, output, watch.lap()[1]))
        first = {}
        for capture_index, output, _ in outputs:
            first.setdefault(capture_index, output["features"])
        X = np.array([first[i] for i in range(len(state.captures))])
        y = np.array([capture.label for capture in state.captures])
        accuracy = {name: crossval.cross_validate(
            factory, X, y, n_folds=self.FOLDS)["mean_accuracy"]
            for name, factory in CLASSIFIERS.items()}
        watch.lap()
        return outputs, accuracy

    def check(self, state: ReplayState, raw, reference) -> PassResult:
        outputs, accuracy = raw
        result = PassResult(items=len(outputs),
                            item_s=[seconds for _, _, seconds in outputs])
        attacked = identified = 0
        for capture_index, output, _ in outputs:
            capture = state.captures[capture_index]
            result.digests[capture.key] = digest(output)
            if reference.get(capture.key) != result.digests[capture.key]:
                result.fail(f"{capture.key}: replay differs from reference")
            online = state.online[capture.key]
            if online is not None and output["labels"] != online:
                result.fail(f"{capture.key}: offline labels "
                            f"{output['labels']} != online {online}")
            if capture.label == "attack":
                attacked += 1
                identified += "html" in output["labels"]
        cv = sum(accuracy.values()) / len(accuracy)
        result.digests["cv_accuracy"] = digest(sorted(accuracy.items()))
        if reference.get("cv_accuracy") != result.digests["cv_accuracy"]:
            result.fail("classifier accuracies differ from the reference")
        result.layer = {"core.html_identified_ratio": identified / attacked,
                        "analysis.cv_accuracy": cv}
        return result


# -- lint_selfcheck --------------------------------------------------------------

@dataclass
class LintState:
    root: Path
    #: Corpus file -> sha256 of its unpacked content.
    manifest: Dict[str, str]
    #: Corpus files whose content differs from the committed manifest.
    corrupt: List[str]


class LintSelfcheck:
    """Every ``lint_paths`` stage over the frozen corpus."""

    name = "lint_selfcheck"
    cpus = 1
    #: Per-file rule checks timed as one segment.
    FILES_PER_SEGMENT = 20

    def setup(self, workdir: Path, seed: int) -> LintState:
        workdir.mkdir(parents=True)
        with tarfile.open(CORPUS) as archive:
            archive.extractall(workdir, filter="data")
        manifest = load_reference().get(self.name, {}).get("corpus", {})
        found = {path.relative_to(workdir).as_posix():
                 hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted((workdir / "repro").rglob("*.py"))}
        corrupt = sorted(path for path in set(found) | set(manifest)
                         if found.get(path) != manifest.get(path))
        return LintState(root=workdir / "repro", manifest=found,
                         corrupt=corrupt)

    def run_pass(self, state: LintState, index: int, watch: clock.Stopwatch,
                 tracer=None):
        """The stages of ``lint_paths``, called in its order; each stage
        is one timed segment."""
        paths = [str(state.root)]
        enabled = engine.resolve_codes()
        files = engine.discover_files(paths)
        contexts = engine.load_contexts(paths)
        watch.lap()
        project = engine.build_project(contexts)
        watch.lap()
        per_file = {}
        item_s = []
        for first in range(0, len(contexts), self.FILES_PER_SEGMENT):
            file_wall = []
            for item in range(first, min(first + self.FILES_PER_SEGMENT,
                                         len(contexts))):
                ctx = contexts[item]
                started = clock.now()
                with tracer.item_span(item) if tracer else nullcontext():
                    per_file[ctx.path] = families.check_module_all(
                        ctx, set(enabled), project)
                file_wall.append(clock.now() - started)
            wall, reference = watch.lap()
            item_s += [seconds * reference / wall for seconds in file_wall]
        project_findings = list(families.check_window_paths(project,
                                                            set(enabled)))
        watch.lap()
        project_findings.extend(typestate.check_lifecycles(project,
                                                           set(enabled)))
        watch.lap()
        project_findings.extend(families.check_dos_paths(project,
                                                         set(enabled)))
        watch.lap()
        project_findings.extend(families.check_taint(project, set(enabled)))
        watch.lap()
        for finding in project_findings:
            per_file.setdefault(finding.path, []).append(finding)
        findings = []
        for ctx in contexts:
            kept, _ = apply_suppressions(per_file[ctx.path], ctx.source,
                                         ctx.path, enabled,
                                         known_codes=engine.KNOWN_CODES)
            findings.extend((f.path, f.line, f.code) for f in kept)
        # Plain values only: holding the trees would slow later passes.
        return (files, [ctx.path for ctx in contexts],
                len(project.functions), findings, item_s)

    def check(self, state: LintState, raw, reference) -> PassResult:
        files, parsed, functions, findings, item_s = raw
        result = PassResult(items=len(files), item_s=item_s)
        base = state.root.parent
        per_file: Dict[str, List] = {
            os.path.relpath(path, base): [] for path in files}
        for path, line, code in findings:
            per_file[os.path.relpath(path, base)].append([line, code])
        parsed = {os.path.relpath(path, base) for path in parsed}
        expected = reference.get("findings", {})
        for path in sorted(per_file):
            result.digests[path] = sorted(per_file[path])
            if path in state.corrupt:
                result.fail(f"{path}: differs from the corpus manifest")
            elif path not in parsed:
                result.fail(f"{path}: failed to parse")
            elif result.digests[path] != expected.get(path, []):
                result.fail(f"{path}: findings differ from the reference")
        if len(files) != reference.get("files"):
            result.fail(f"{len(files)} corpus files, the reference has "
                        f"{reference.get('files')}")
        result.layer = {"lint.functions": functions,
                        "lint.findings": len(findings)}
        return result


WORKLOADS = {w.name: w for w in (AttackSerial(), SweepPool(),
                                 CaptureReplay(), LintSelfcheck())}
