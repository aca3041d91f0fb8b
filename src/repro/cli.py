"""Command-line interface: ``python -m repro <experiment> [options]``.

Each subcommand regenerates one paper artefact and prints the
measured-vs-paper table; ``attack`` runs a single annotated session.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments import (defenses_eval, dos_eval, drops, faults_eval,
                               figure5, table1, table2)

#: The runner-backed subcommands: one declared
#: :class:`~repro.experiments.experiment.Experiment` each, in help order.
EXPERIMENTS = {module.EXPERIMENT.command: module.EXPERIMENT for module in (
    table1, figure5, drops, table2, defenses_eval, faults_eval, dos_eval)}


def _bounded(kind, low, inclusive: bool = True):
    """An argparse ``type`` that turns a value below ``low`` (or at it,
    unless ``inclusive``) into a usage error."""
    def parse(text: str):
        value = kind(text)
        if not (value >= low if inclusive else value > low):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if inclusive else '>'} {low}, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


_positive_int = _bounded(int, 1)
_non_negative_int = _bounded(int, 0)
_positive_float = _bounded(float, 0, inclusive=False)


def _add_common(parser: argparse.ArgumentParser, default_n: int) -> None:
    parser.add_argument("-n", "--loads", type=_positive_int,
                        default=default_n,
                        help=f"loads per measurement point "
                             f"(default {default_n}; the paper used 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed (default 0)")


def _add_runner(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-j", "--jobs", type=_positive_int, default=1,
                        help="worker processes for the experiment grid; "
                             "above 1 the grid runs on a supervised "
                             "persistent pool (heartbeats, crash respawn, "
                             "poison-cell quarantine).  Default 1 runs "
                             "in-process; results are identical at any "
                             "job count")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the on-disk run cache")
    parser.add_argument("--cache-dir", default=None,
                        help="run-cache location (default $REPRO_CACHE_DIR "
                             "or ~/.cache/repro-runs)")
    parser.add_argument("--cell-timeout", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline per grid cell; a cell "
                             "that overruns is killed and marked failed. "
                             "Runs the grid on the worker pool even at "
                             "--jobs 1 (default: none)")
    parser.add_argument("--retries", type=_non_negative_int, default=0,
                        help="extra attempts for a crashed/hung/raising "
                             "cell, with exponential backoff (default 0)")
    parser.add_argument("--ledger", default=None, metavar="FILE",
                        help="append-only JSONL sweep ledger; an "
                             "interrupted run re-executed with the same "
                             "ledger resumes at exactly the missing "
                             "cells, even with --no-cache")


def runner_options(args):
    """The :class:`~repro.experiments.runner.RunnerOptions` that a
    runner-backed subcommand's flags ask for."""
    from repro.experiments.runner import RunCache, RunnerOptions

    cache = RunCache(root=args.cache_dir, enabled=not args.no_cache)
    return RunnerOptions(jobs=args.jobs, cache=cache,
                         timeout_s=args.cell_timeout, retries=args.retries,
                         ledger=args.ledger)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Depending on HTTP/2 for Privacy? "
                    "Good Luck!' (DSN 2020)")
    sub = parser.add_subparsers(dest="command", required=True)

    attack = sub.add_parser("attack",
                            help="run one attacked survey load (quickstart)")
    attack.add_argument("--seed", type=int, default=7)

    baseline = sub.add_parser(
        "baseline", help="E1: baseline multiplexing (no adversary)")
    _add_common(baseline, 40)

    for experiment in EXPERIMENTS.values():
        cmd = sub.add_parser(experiment.command, help=experiment.help)
        _add_common(cmd, experiment.default_n)
        _add_runner(cmd)
        for option, choices in experiment.flags:
            cmd.add_argument(f"--{option}", choices=choices,
                             default=experiment.defaults[option])

    sub.add_parser("size-estimation", help="E6: Fig. 1 micro-benchmark")

    chaos = sub.add_parser(
        "chaos",
        help="fuzz sessions (topologies x faults x defenses) with "
             "invariant monitors armed; minimize any failure to a "
             "reproducer spec")
    chaos.add_argument("--seeds", type=int, default=25,
                       help="fuzzed sessions to draw from the master seed "
                            "(default 25)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="master seed of the campaign (default 0)")
    chaos.add_argument("--budget", type=int, default=200,
                       help="max shrinker session runs per violation "
                            "(default 200)")
    chaos.add_argument("--plan", default=None, metavar="FILE",
                       help="fault-plan JSON forced into every generated "
                            "spec (replaces the random fault events)")
    chaos.add_argument("--replay", default=None, metavar="FILE",
                       help="re-run one reproducer spec file and exit")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="report violations without minimizing them")
    chaos.add_argument("--out", default="chaos-reproducers",
                       help="directory for minimized reproducer specs "
                            "(default ./chaos-reproducers)")
    _add_runner(chaos)

    bench = sub.add_parser(
        "bench",
        help="run the seeded performance suite and write BENCH_<topic>"
             ".json snapshots; --compare OLD NEW diffs trajectories")
    from repro.bench.cli import add_bench_arguments
    add_bench_arguments(bench)

    lint = sub.add_parser("lint",
                          help="whole-program static checks (rule "
                               "families DET/SIM/CACHE/PROTO/PERF, "
                               "--fix for mechanical repairs)")
    from repro.lint.cli import add_lint_arguments
    add_lint_arguments(lint)

    fingerprint = sub.add_parser("fingerprint",
                                 help="E7a: ML classification of traces")
    _add_common(fingerprint, 32)

    streaming = sub.add_parser("streaming",
                               help="E8 extension: streaming traffic")
    _add_common(streaming, 8)

    recovery = sub.add_parser("recovery-ablation",
                              help="modern vs legacy TCP recovery")
    _add_common(recovery, 15)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "attack":
        _run_attack(args.seed)
        return 0

    if args.command == "lint":
        from repro.lint.cli import run_lint_command
        return run_lint_command(args)

    if args.command == "bench":
        from repro.bench.cli import run_bench_command
        return run_bench_command(args)

    if args.command == "chaos":
        from repro.experiments.chaos import run_chaos_command
        return run_chaos_command(args, runner_options(args))

    experiment = EXPERIMENTS.get(args.command)
    if experiment is not None:
        options = {option: getattr(args, option)
                   for option, _ in experiment.flags}
        result = experiment.run(base_seed=args.seed,
                                runner=runner_options(args),
                                **{experiment.count: args.loads}, **options)
        print(result.table().to_text())
        for line in result.verdict_lines():
            print(line)
        for failure in result.failures:
            print(f"failed cell: {failure}")
        print(result.telemetry.line())
        return 0

    if args.command == "baseline":
        from repro.experiments.baseline import run_baseline
        result = run_baseline(n_loads=args.loads, base_seed=args.seed)
    elif args.command == "size-estimation":
        from repro.experiments.size_estimation import run_size_estimation
        result = run_size_estimation()
    elif args.command == "fingerprint":
        from repro.experiments.fingerprinting import run_fingerprinting
        result = run_fingerprinting(n_loads=args.loads)
    elif args.command == "streaming":
        from repro.experiments.streaming import run_streaming
        result = run_streaming(n_sessions=args.loads, base_seed=args.seed)
    elif args.command == "recovery-ablation":
        from repro.experiments.ablations import run_recovery_ablation
        result = run_recovery_ablation(n_per_point=args.loads,
                                       base_seed=args.seed)
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(2)

    print(result.table().to_text())
    return 0


def _run_attack(seed: int) -> None:
    from repro import AttackConfig, SessionConfig, run_session

    result = run_session(SessionConfig(seed=seed, attack=AttackConfig()))
    report = result.report
    print("phases:")
    for phase, when in sorted(report.phase_times.items(), key=lambda kv: kv[1]):
        print(f"  {when:7.3f}s  {phase}")
    print("adversary decoded:", report.predicted_labels)
    print("ground truth     :", ["html"] + list(result.permutation))
    party_sequence = [l for l in report.predicted_labels if l != "html"]
    correct = sum(1 for i, party in enumerate(result.permutation)
                  if i < len(party_sequence) and party_sequence[i] == party)
    print(f"positions recovered: {correct}/8; resets={result.load.resets}; "
          f"load {'ok' if result.load.success else 'FAILED'}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
