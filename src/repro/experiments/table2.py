"""E5 -- Table II: end-to-end prediction accuracy (Section V).

The paper's numbers (success %, target = one object at a time / all
objects at a time):

=========  ====  ===  ===  ===  ===  ===  ===  ===  ===
object     HTML  I1   I2   I3   I4   I5   I6   I7   I8
single     100   100  100  100  100  100  100  100  100
all        90    90   85   81   80   62   64   78   64
=========  ====  ===  ===  ===  ===  ===  ===  ===  ===
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Optional

from repro.core.phases import AttackConfig
from repro.experiments.evaluation import (Table2Outcome, aggregate_table2,
                                          evaluate_table2)
from repro.experiments.experiment import Column, Experiment, Group
from repro.experiments.runner import grid
from repro.experiments.session import SessionConfig, run_session

PAPER_SINGLE = (100, 100, 100, 100, 100, 100, 100, 100, 100)
PAPER_ALL = (90, 90, 85, 81, 80, 62, 64, 78, 64)
OBJECT_LABELS = ("HTML", "I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8")
#: Table II row 1: T(Req O_curr) - T(Req O_prev) in milliseconds.
PAPER_GAP_PREV_MS = (500, 780, 0.4, 2, 0.3, 0.1, 0.3, 2, 0.5)

#: Runner cells: one attacked load / one clean profiling load.
CELL = "repro.experiments.table2:run_cell"
GAP_CELL = "repro.experiments.table2:run_gap_cell"
#: First seed of the clean profiling loads, clear of the attacked ones.
GAP_BASE_SEED = 5000


def run_cell(seed: int) -> dict:
    """One attacked load evaluated against the Table II criteria."""
    result = run_session(SessionConfig(seed=seed, attack=AttackConfig()))
    return {
        "outcome": asdict(evaluate_table2(result)),
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def run_gap_cell(seed: int) -> dict:
    """One clean load's natural inter-request gaps (ms) per slot.

    Slots are HTML then I1..I8; a slot is ``None`` when its object was
    the first request or never requested (e.g. warm-cache loads).
    """
    from repro.website.isidewith import HTML_PATH, IsideWithSite

    result = run_session(SessionConfig(seed=seed))
    events = [e for e in result.load.requests if not e.is_rerequest]
    times = {e.path: e.time for e in events}
    ordered = sorted(events, key=lambda e: e.time)
    positions = {e.path: k for k, e in enumerate(ordered)}
    targets = [HTML_PATH] + [IsideWithSite.image_path(p)
                             for p in result.permutation]
    gaps: List[Optional[float]] = []
    for path in targets:
        position = positions.get(path)
        if position is None or position == 0:
            gaps.append(None)
        else:
            gaps.append((times[path] - ordered[position - 1].time) * 1000.0)
    return {
        "gaps_ms": gaps,
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def _natural_gaps(g: Group) -> List[float]:
    """Mean natural inter-request gaps (ms) for HTML and I1..I8.

    Measured over clean (un-attacked) loads, exactly as the paper's
    adversary profiled its target before tuning the jitter
    (assumption 4 of Section III).
    """
    n_loads = min(10, max(3, g.n // 4))
    profile = g.runner.run(grid(
        GAP_CELL, seeds=range(GAP_BASE_SEED, GAP_BASE_SEED + n_loads)))
    g.telemetry.add(profile)

    sums = [0.0] * 9
    counts = [0] * 9
    for metrics in profile.metrics():
        for slot, gap in enumerate(metrics["gaps_ms"]):
            if gap is None:
                continue
            sums[slot] += gap
            counts[slot] += 1
    return [sums[i] / counts[i] if counts[i] else 0.0 for i in range(9)]


def _aggregated(key: str):
    return lambda g: g.row.aggregated[key]


EXPERIMENT = Experiment(
    command="table2", help="E5: Table II attack accuracy", default_n=40,
    title=lambda s: ("E5 / Table II: per-object attack success and "
                     "request timing"),
    cell=CELL, count="n_loads",
    defaults={"n_loads": 100},
    axes=lambda s: dict(seeds=s.seeds),
    rows=(),
    columns=(
        Column(None, "aggregated", lambda g: aggregate_table2(
            [Table2Outcome(**c["outcome"]) for c in g.cells])),
        Column("object", "object", lambda g: OBJECT_LABELS),
        Column("gap prev (ms)", "gap_prev_ms", _natural_gaps,
               show=lambda gaps: [round(gap, 1) for gap in gaps],
               paper=PAPER_GAP_PREV_MS),
        Column("single (%)", "single_pct", _aggregated("single"),
               paper=PAPER_SINGLE),
        Column("all-objects (%)", "all_pct", _aggregated("all"),
               paper=PAPER_ALL),
        Column(None, "broken_pct", _aggregated("broken_pct")),
        Column(None, "mean_resets", _aggregated("mean_resets")),
    ),
    transpose=True,
)


#: Run the full attack over many volunteer sessions.
run_table2 = EXPERIMENT.run
