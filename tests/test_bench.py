"""Benchmark layer tests: snapshot schema, determinism, compare gating,
and the __slots__ guard on hot-path objects."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (SCHEMA_VERSION, BenchSnapshot, compare_snapshots,
                         measure, scale_by_name, workloads)
from repro.bench.compare import CompareUsageError
from repro.bench.snapshot import SnapshotError, load_location, snapshot_path
from repro.cli import main
from repro.http2.frames import DataFrame, HeadersFrame
from repro.http2.hpack import HpackToken
from repro.http2.server import TxEntry
from repro.simnet.engine import Simulator
from repro.simnet.middlebox import PolicyAction
from repro.simnet.packet import Packet, RecordInfo, TcpWireView, WireView
from repro.simnet.trace import CapturedPacket, CompletedRecord, TraceRecorder
from repro.tcp.segment import RecordSlice
from repro.tls.record import TlsRecord

REPO_ROOT = Path(__file__).resolve().parents[1]
SMOKE = scale_by_name("smoke")


def _snapshot(topic="event_heap", events=100, eps=1000.0, version=1,
              scale="smoke", **extra):
    metrics = {"events": events, "events_per_second": eps,
               "wall_time_s": events / eps, "peak_tracemalloc_kb": 1.0,
               "allocated_blocks": 10, "peak_rss_kb": 100.0, "repeats": 1}
    metrics.update(extra)
    return BenchSnapshot(topic=topic, workload_version=version, scale=scale,
                         metrics=metrics)


# -- snapshot schema -------------------------------------------------------

def test_snapshot_roundtrip(tmp_path):
    snap = _snapshot(environment_marker=3.0)
    path = snap.write(str(tmp_path))
    assert path == snapshot_path(str(tmp_path), "event_heap")
    loaded = BenchSnapshot.read(path)
    assert loaded.to_dict() == snap.to_dict()
    assert loaded.schema_version == SCHEMA_VERSION


def test_snapshot_rejects_bad_schema(tmp_path):
    data = _snapshot().to_dict()
    data["schema_version"] = SCHEMA_VERSION + 99
    with pytest.raises(SnapshotError):
        BenchSnapshot.from_dict(data)
    data = _snapshot().to_dict()
    del data["metrics"]["events"]
    with pytest.raises(SnapshotError):
        BenchSnapshot.from_dict(data)


def test_load_location_handles_dir_and_file(tmp_path):
    a = _snapshot("event_heap")
    b = _snapshot("hpack")
    a.write(str(tmp_path))
    path_b = b.write(str(tmp_path))
    by_topic = load_location(str(tmp_path))
    assert sorted(by_topic) == ["event_heap", "hpack"]
    assert load_location(path_b)["hpack"].topic == "hpack"
    with pytest.raises(SnapshotError):
        load_location(str(tmp_path / "missing"))


def test_committed_snapshots_match_schema_and_suite():
    """The repo-root trajectory and the CI smoke baselines stay loadable
    and cover every suite topic."""
    suite_topics = sorted(w.topic for w in workloads())
    for location, scale in ((REPO_ROOT, "full"),
                            (REPO_ROOT / "benchmarks" / "baselines", "smoke")):
        by_topic = load_location(str(location))
        assert sorted(by_topic) == suite_topics
        for snap in by_topic.values():
            assert snap.schema_version == SCHEMA_VERSION
            assert snap.scale == scale
            assert snap.metrics["events"] > 0


# -- determinism -----------------------------------------------------------

def test_workload_counts_match_committed_baselines():
    """Every workload reproduces the committed smoke event count."""
    baselines = load_location(str(REPO_ROOT / "benchmarks" / "baselines"))
    for workload in workloads():
        outcome = workload.run(SMOKE)
        # A workload may return (events, aux_metrics); only the event
        # count is part of the determinism contract.
        count = outcome[0] if isinstance(outcome, tuple) else outcome
        assert count == baselines[workload.topic].metrics["events"], \
            workload.topic


def test_workload_counts_deterministic_across_processes():
    """A fresh interpreter reproduces this process's event counts."""
    script = (
        "from repro.bench import scale_by_name, workloads\n"
        "s = scale_by_name('smoke')\n"
        "print({w.topic: w.run(s) for w in workloads()\n"
        "       if w.topic in ('hpack', 'tcp_reassembly')})\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    child = eval(out.stdout.strip())  # dict literal from our own script
    here = {w.topic: w.run(SMOKE) for w in workloads()
            if w.topic in ("hpack", "tcp_reassembly")}
    assert child == here


def test_measure_rejects_nondeterministic_workload():
    counts = iter([10, 11])

    def flaky():
        return next(counts)

    with pytest.raises(RuntimeError):
        measure(flaky, repeats=2)


# -- compare gating --------------------------------------------------------

def test_compare_clean():
    old = {"a": _snapshot("a")}
    new = {"a": _snapshot("a")}
    _deltas, problems, code = compare_snapshots(old, new)
    assert code == 0 and not problems


def test_compare_flags_count_mismatch_even_in_advisory_mode():
    old = {"a": _snapshot("a", events=100)}
    new = {"a": _snapshot("a", events=101)}
    _d, problems, code = compare_snapshots(old, new, advisory_time=True)
    assert code == 1
    assert any("count" in p for p in problems)


def test_compare_flags_time_regression_unless_advisory():
    old = {"a": _snapshot("a", eps=1000.0)}
    new = {"a": _snapshot("a", eps=600.0)}
    _d, _p, code = compare_snapshots(old, new, threshold=0.25)
    assert code == 1
    _d, _p, code = compare_snapshots(old, new, threshold=0.25,
                                     advisory_time=True)
    assert code == 0
    _d, _p, code = compare_snapshots(old, new, threshold=0.5)
    assert code == 0


def test_compare_flags_missing_topic():
    old = {"a": _snapshot("a"), "b": _snapshot("b")}
    new = {"a": _snapshot("a")}
    _d, _p, code = compare_snapshots(old, new)
    assert code == 1


def test_compare_rejects_scale_and_version_mismatch():
    with pytest.raises(CompareUsageError):
        compare_snapshots({"a": _snapshot("a", scale="full")},
                          {"a": _snapshot("a", scale="smoke")})
    with pytest.raises(CompareUsageError):
        compare_snapshots({"a": _snapshot("a", version=1)},
                          {"a": _snapshot("a", version=2)})


# -- CLI -------------------------------------------------------------------

def test_cli_bench_run_and_compare_exit_codes(tmp_path):
    out = tmp_path / "run"
    code = main(["bench", "--topics", "hpack", "--scale", "smoke",
                 "--repeats", "1", "--out-dir", str(out)])
    assert code == 0
    assert (out / "BENCH_hpack.json").exists()

    assert main(["bench", "--compare", str(out), str(out)]) == 0

    # Inject a regression: slow the NEW snapshot far past the threshold.
    slow = tmp_path / "slow"
    data = json.loads((out / "BENCH_hpack.json").read_text())
    data["metrics"]["events_per_second"] *= 0.5
    data["metrics"]["wall_time_s"] *= 2
    slow.mkdir()
    (slow / "BENCH_hpack.json").write_text(json.dumps(data))
    assert main(["bench", "--compare", str(out), str(slow)]) == 1
    assert main(["bench", "--compare", str(out), str(slow),
                 "--advisory-time"]) == 0

    # Tampered event count fails even in advisory mode.
    bad = tmp_path / "bad"
    data = json.loads((out / "BENCH_hpack.json").read_text())
    data["metrics"]["events"] += 1
    bad.mkdir()
    (bad / "BENCH_hpack.json").write_text(json.dumps(data))
    assert main(["bench", "--compare", str(out), str(bad),
                 "--advisory-time"]) == 1

    # Usage errors: missing location, unknown topic/scale.
    assert main(["bench", "--compare", str(out),
                 str(tmp_path / "nope")]) == 2
    assert main(["bench", "--topics", "nope", "--scale", "smoke",
                 "--out-dir", str(out)]) == 2
    assert main(["bench", "--scale", "nope", "--out-dir", str(out)]) == 2


def test_cli_bench_list(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    for workload in workloads():
        assert workload.topic in out


# -- __slots__ guard -------------------------------------------------------

def test_hot_path_objects_reject_stray_attributes():
    """The slots optimization also guards against typo'd attributes
    silently creating per-instance dicts on hot-path objects."""
    sim = Simulator(seed=0)
    handle = sim.schedule(0.0, lambda: None)
    record = TlsRecord(content_type=23, payload_len=10)
    frame_cases = [
        handle,
        record,
        Packet(src="c", dst="s", size=100),
        DataFrame(stream_id=1, length=10),
        HeadersFrame(stream_id=1, header_block_len=10),
        CapturedPacket(time=0.0, direction="c2s", view=None, dropped=False),
        TraceRecorder(),
    ]
    for obj in frame_cases:
        # frozen+slots dataclasses on 3.10/3.11 raise TypeError instead
        # of AttributeError for unknown names (fixed upstream in 3.12);
        # either way the stray write is rejected.
        with pytest.raises((AttributeError, TypeError)):
            obj.definitely_not_a_field = 1
    for obj in (handle, record):
        assert not hasattr(obj, "__dict__")


_INFO = RecordInfo(1, 23, 100, 100, True, True)
_TCP = TcpWireView(1, 443, 0, 0, 100)
_VIEW = WireView(1, "c", "s", 154, _TCP, (_INFO,))


@pytest.mark.parametrize("value", [
    _INFO,
    _TCP,
    _VIEW,
    CapturedPacket(0.0, "c2s", _VIEW, False),
    CompletedRecord(1, 23, 100, 0.0, 0.0, "s2c", 154),
    RecordSlice(TlsRecord(content_type=23, payload_len=10), 0, 10),
    TxEntry(0.0, 1, "/a", 1, 0, 10, True, True, False),
    HpackToken("indexed", 2),
    PolicyAction(False, 1.0),
], ids=lambda value: type(value).__name__)
def test_value_types_are_immutable(value):
    """Per-packet value types are shared freely (policies return shared
    verdicts, captures hold the views the taps saw), so neither a field
    nor a stray attribute may be written."""
    with pytest.raises(AttributeError):
        setattr(value, type(value)._fields[0], None)
    with pytest.raises(AttributeError):
        value.definitely_not_a_field = 1
    assert not hasattr(value, "__dict__")
