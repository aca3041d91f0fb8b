"""E2 -- Table I: effect of jitter on HTTP/2 multiplexing.

Paper numbers (object of interest = the 9500-byte result HTML):

===============  ==========================  =====================
delay/request    non-multiplexed cases (%)    retransmissions (+%)
===============  ==========================  =====================
0 ms (baseline)  32                           0
25 ms            46                           ~33
50 ms            54                           ~130
100 ms           54                           ~194
===============  ==========================  =====================

Our gateway model offers two jitter implementations (see DESIGN.md):
the deterministic spacing ramp (primary; reproduces the non-mux column)
and netem-style independent delay (reproduces retransmission inflation
at every level).  The harness reports both.
"""

from __future__ import annotations

from repro.core.phases import jitter_only_config
from repro.experiments.experiment import (Column, Experiment, Group, mean,
                                          observed_pct, pct)
from repro.experiments.session import SessionConfig, run_session
from repro.website.isidewith import HTML_PATH

#: The paper's jitter values (seconds).
JITTER_VALUES_S = (0.0, 0.025, 0.05, 0.1)

#: Paper's Table I for the comparison columns.
PAPER_NONMUX_PCT = {0.0: 32, 0.025: 46, 0.05: 54, 0.1: 54}
PAPER_RETX_INCREASE_PCT = {0.0: 0, 0.025: 33, 0.05: 130, 0.1: 194}

#: Runner cell for one (seed, jitter, style) grid point.
CELL = "repro.experiments.table1:run_cell"


def run_cell(seed: int, jitter_s: float, style: str) -> dict:
    """One simulated load at one jitter setting (JSON-able metrics)."""
    attack = jitter_only_config(jitter_s, style) if jitter_s > 0 else None
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
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


def _retx_increase(g: Group) -> float:
    """Retransmissions relative to the first row (the baseline)."""
    if not g.rows:
        return 0.0
    baseline = max(g.rows[0].mean_retransmissions, 0.01)
    return 100.0 * (g.row.mean_retransmissions - baseline) / baseline


EXPERIMENT = Experiment(
    command="table1", help="E2: Table I jitter sweep", default_n=30,
    title=lambda s: f"E2 / Table I: jitter sweep (style={s.style})",
    cell=CELL,
    defaults={"n_per_point": 100, "style": "spacing",
              "jitter_values": JITTER_VALUES_S},
    axes=lambda s: dict(jitter_s=tuple(s.jitter_values), style=s.style,
                        seeds=s.seeds),
    rows=("jitter_s",),
    columns=(
        Column("jitter (ms)", "jitter_s", show=lambda j: int(j * 1000)),
        Column("non-mux (%)", "nonmux_pct", observed_pct("nonmux"),
               paper=PAPER_NONMUX_PCT, paper_header="paper (%)"),
        Column("retx/load", "mean_retransmissions", mean("retransmissions")),
        Column("retx increase (%)", "retx_increase_pct", _retx_increase,
               paper=PAPER_RETX_INCREASE_PCT, paper_header="paper (+%)"),
        Column(None, "broken_pct", pct("broken")),
    ),
    flags=(("style", ("spacing", "netem")),),
)


#: Run the Table I sweep for one jitter style.
run_table1 = EXPERIMENT.run
