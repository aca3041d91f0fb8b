"""E4 -- targeted packet drops force the Reset Stream (Section IV-D).

The paper: with jitter and throttling applied, dropping 80 % of the
application packets on the server -> client path from the 6th GET until
the client resets yields a ~90 % rate of the object of interest being
transmitted non-multiplexed after the reset; pushing the drop rate
higher breaks the connection instead.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.phases import AttackConfig
from repro.experiments.experiment import Column, Experiment, pct
from repro.experiments.session import SessionConfig, run_session
from repro.website.isidewith import HTML_PATH

#: Runner cell for one (seed, drop rate) grid point.
CELL = "repro.experiments.drops:run_cell"


def run_cell(seed: int, drop_rate: float) -> dict:
    """One attacked load at one drop rate (JSON-able metrics)."""
    attack = replace(AttackConfig(), drop_rate=drop_rate)
    result = run_session(SessionConfig(seed=seed, attack=attack))
    identified = (result.report is not None
                  and "html" in result.report.predicted_labels)
    return {
        "serialized": bool(result.serialized(HTML_PATH)),
        "identified": bool(identified),
        "reset": bool(result.load is not None and result.load.resets > 0),
        "broken": bool(result.broken),
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


EXPERIMENT = Experiment(
    command="drops", help="E4: Section IV-D drop burst", default_n=25,
    title=lambda s: "E4 / Section IV-D: reset-forcing drop burst",
    cell=CELL,
    defaults={"n_per_point": 100, "drop_rates": (0.5, 0.8, 0.95)},
    axes=lambda s: dict(drop_rate=tuple(s.drop_rates), seeds=s.seeds),
    rows=("drop_rate",),
    columns=(
        Column("drop rate (%)", "drop_rate", show=lambda r: r * 100),
        Column("HTML serialized (%)", "html_serialized_pct",
               pct("serialized")),
        Column("HTML identified (%)", "html_identified_pct",
               pct("identified")),
        Column("client reset (%)", "reset_happened_pct", pct("reset")),
        Column("broken (%)", "broken_pct", pct("broken")),
    ),
)


#: Sweep the drop rate; 0.8 is the paper's setting.
run_drops = EXPERIMENT.run
