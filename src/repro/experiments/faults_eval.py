"""EF -- attack robustness under injected infrastructure faults.

The paper's attack assumes a quiet, reliable path: the gateway stays
up, the server never restarts, links do not flap.  This experiment
measures how the serialization attack degrades when that assumption
breaks -- sweeping a fault-intensity knob that scales the number and
length of deterministic link flaps, middlebox crashes, server stalls
and connection aborts injected into each session
(:func:`repro.faults.plan_for_intensity`).

Each cell carries its fault plan *inside* the
:class:`~repro.experiments.runner.RunSpec` params, so the plan is part
of the cache key and a cached cell can never be replayed against a
different schedule.  The sweep runs ``strict=False``: a cell that dies
anyway (worker crash, cell timeout) is reported with its reason rather
than aborting the sweep.
"""

from __future__ import annotations

from typing import Optional

from repro.browser.browser import BrowserConfig
from repro.core.phases import AttackConfig
from repro.experiments.experiment import (OK_CELLS, Column, Experiment, mean,
                                          mean_present, pct)
from repro.experiments.session import SessionConfig, run_session
from repro.faults import plan_for_intensity
from repro.website.isidewith import HTML_PATH, HTML_SIZE

#: Runner cell for one (seed, intensity) grid point.
CELL = "repro.experiments.faults_eval:run_cell"

#: Fresh connections the browser may dial per session in this
#: experiment (the recovery behaviour under test).
MAX_RECONNECTS = 2


def run_cell(seed: int, intensity: float, plan: list) -> dict:
    """One attacked, fault-injected load (JSON-able metrics).

    ``plan`` is the JSON form of the cell's :class:`FaultPlan`; passing
    it explicitly (rather than regenerating from the seed inside) keeps
    the schedule visible in the spec and hashed into the cache key.
    """
    config = SessionConfig(
        seed=seed,
        attack=AttackConfig(),
        browser=BrowserConfig(max_reconnects=MAX_RECONNECTS),
        faults=plan,
    )
    result = run_session(config)
    identified = (result.report is not None
                  and "html" in result.report.predicted_labels)
    size_error: Optional[int] = None
    if result.report is not None and result.report.window_estimates:
        size_error = min(abs(e.size - HTML_SIZE)
                         for e in result.report.window_estimates)
    load = result.load
    return {
        "intensity": intensity,
        "serialized": bool(result.serialized(HTML_PATH)),
        "identified": bool(identified),
        "broken": bool(result.broken),
        "reset": bool(load is not None and load.resets > 0),
        "reconnects": int(load.reconnects) if load is not None else 0,
        "stream_retries": int(result.client.stream_retries),
        "faults_applied": len(result.injector.applied
                              if result.injector is not None else ()),
        "size_error_bytes": size_error,
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


EXPERIMENT = Experiment(
    command="faults", help="EF: attack success under injected faults",
    default_n=20,
    title=lambda s: "EF: attack success vs injected fault intensity",
    cell=CELL,
    defaults={"n_per_point": 40, "intensities": (0.0, 0.25, 0.5, 1.0)},
    axes=lambda s: dict(
        intensity=tuple(s.intensities), seeds=s.seeds,
        plan=lambda p: [plan_for_intensity(p["intensity"],
                                           p["seed"]).to_jsonable()]),
    rows=("intensity",),
    columns=(
        Column("intensity", "intensity"),
        Column("HTML serialized (%)", "html_serialized_pct",
               pct("serialized")),
        Column("HTML identified (%)", "html_identified_pct",
               pct("identified")),
        Column("broken (%)", "broken_pct", pct("broken")),
        Column("reconnects", "mean_reconnects", mean("reconnects")),
        Column("stream retries", "mean_stream_retries",
               mean("stream_retries")),
        # Mean absolute error of the adversary's best HTML size
        # estimate, over the sessions where it produced any estimate.
        Column("size err (B)", "mean_size_error_bytes",
               mean_present("size_error_bytes", 0.0)),
        OK_CELLS,
    ),
    strict=False,
)


#: Sweep fault intensity; 0.0 is the paper's quiet-path baseline.
run_faults_eval = EXPERIMENT.run
