"""E7b -- defenses against the serialization attack (Section VII).

Runs the full attack against: no defense, bucket padding, morphing,
randomized image order (the paper's proposal), and server push, and
reports how much of the preference order survives.
"""

from __future__ import annotations

from repro.core.phases import AttackConfig
from repro.defenses.morphing import MorphingDefense
from repro.defenses.padding import bucket_padding
from repro.defenses.push import push_client_settings, push_defense_server_config
from repro.defenses.random_order import shuffle_scripted_requests
from repro.experiments.evaluation import sequence_accuracy
from repro.experiments.experiment import Column, Experiment, pct
from repro.experiments.session import SessionConfig, run_session
from repro.http2.server import Http2ServerConfig
from repro.website.isidewith import PARTY_IMAGE_SIZES, build_isidewith_site

#: Runner cell for one (seed, defense) grid point.
CELL = "repro.experiments.defenses_eval:run_cell"


def _session_config(seed: int, defense: str) -> SessionConfig:
    config = SessionConfig(seed=seed, attack=AttackConfig())
    if defense == "padding":
        server = Http2ServerConfig()
        server.pad_object = bucket_padding(16_384)
        config.server = server
    elif defense == "morphing":
        server = Http2ServerConfig()
        server.pad_object = MorphingDefense(
            sorted(PARTY_IMAGE_SIZES.values())).pad_object()
        config.server = server
    elif defense == "random-order":
        config.plan_transform = shuffle_scripted_requests
    elif defense == "push":
        site = build_isidewith_site()
        config.server = push_defense_server_config(site)
        config.client_settings = push_client_settings()
    elif defense == "batching":
        from repro.defenses.batching import BatchingBrowser
        config.browser_class = BatchingBrowser
    elif defense != "none":
        raise ValueError(f"unknown defense {defense!r}")
    return config


DEFENSES = ("none", "padding", "morphing", "random-order", "push",
            "batching")


def run_cell(seed: int, defense: str) -> dict:
    """One attacked load under one defense (JSON-able metrics).

    The spec carries the defense *name*, never the configured
    :class:`SessionConfig` -- the config holds callables and server
    objects that neither pickle for workers nor hash for the cache.
    """
    result = run_session(_session_config(seed, defense))
    identified = (result.report is not None
                  and "html" in result.report.predicted_labels)
    return {
        "sequence_accuracy": sequence_accuracy(result),
        "html_identified": bool(identified),
        "load_ok": bool(result.load is not None and result.load.success),
        "sim_time_s": result.duration_s,
        "processed_events": result.processed_events,
    }


EXPERIMENT = Experiment(
    command="defenses", help="E7b: defenses evaluation", default_n=15,
    title=lambda s: "E7b: attack vs defenses (sequence recovery)",
    cell=CELL, count="n_per_defense",
    defaults={"n_per_defense": 30, "defenses": DEFENSES},
    axes=lambda s: dict(defense=tuple(s.defenses), seeds=s.seeds),
    rows=("defense",),
    columns=(
        Column("defense", "defense"),
        Column("order recovered (%)", "sequence_accuracy_pct",
               pct("sequence_accuracy")),
        Column("HTML identified (%)", "html_identified_pct",
               pct("html_identified")),
        Column("page loads ok (%)", "load_success_pct", pct("load_ok")),
    ),
)


#: Run the attack under each defense.
run_defenses = EXPERIMENT.run
