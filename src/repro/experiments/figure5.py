"""E3 -- Figure 5: effect of bandwidth limitation (Section IV-C).

The paper throttles the gateway to 1000 / 800 / 500 / 100 / 1 Mbps with
50 ms jitter active and observes (a) retransmissions falling
monotonically as bandwidth drops, and (b) the fraction of loads with the
HTML non-multiplexed peaking around 800 Mbps and degrading toward
1 Mbps, where connections start breaking.
"""

from __future__ import annotations

from repro.core.phases import jitter_plus_throttle_config
from repro.experiments.experiment import (Column, Experiment, mean,
                                          observed_pct, pct)
from repro.experiments.session import SessionConfig, run_session
from repro.website.isidewith import HTML_PATH

#: The paper's bandwidth points (bits per second).
BANDWIDTH_VALUES_BPS = (1_000e6, 800e6, 500e6, 100e6, 1e6)

#: Runner cell for one (seed, jitter, bandwidth) grid point.
CELL = "repro.experiments.figure5:run_cell"


def run_cell(seed: int, jitter_s: float, bandwidth_bps: float) -> dict:
    """One simulated load at one throttle setting (JSON-able metrics)."""
    attack = jitter_plus_throttle_config(jitter_s, bandwidth_bps)
    result = run_session(SessionConfig(seed=seed, attack=attack))
    try:
        nonmux = bool(result.degree(HTML_PATH) == 0.0)
        observed = True
    except KeyError:
        nonmux = False
        observed = False
    return {
        "nonmux": nonmux,
        "observed": observed,
        "retransmissions": result.retransmissions,
        "broken": bool(result.broken),
        "duration_s": result.duration_s,
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


EXPERIMENT = Experiment(
    command="figure5", help="E3: Fig. 5 bandwidth sweep", default_n=20,
    title=lambda s: (f"E3 / Fig. 5: bandwidth sweep "
                     f"(jitter={s.jitter_s*1000:.0f} ms)"),
    cell=CELL,
    defaults={"n_per_point": 100, "jitter_s": 0.05,
              "bandwidths": BANDWIDTH_VALUES_BPS},
    axes=lambda s: dict(bandwidth_bps=tuple(s.bandwidths),
                        jitter_s=s.jitter_s, seeds=s.seeds),
    rows=("bandwidth_bps",),
    columns=(
        Column("bandwidth (Mbps)", "bandwidth_bps", show=lambda b: b / 1e6),
        Column("success/non-mux (%)", "nonmux_pct", observed_pct("nonmux")),
        Column("retx/load", "mean_retransmissions", mean("retransmissions")),
        Column("broken (%)", "broken_pct", pct("broken")),
        Column("load time (s)", "mean_duration_s", mean("duration_s")),
    ),
)


#: Run the Fig. 5 sweep.
run_figure5 = EXPERIMENT.run
