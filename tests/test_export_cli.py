"""Trace export/import and CLI tests."""

import hashlib
import re
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.estimator import SizeEstimator
from repro.core.phases import AttackConfig
from repro.experiments.session import SessionConfig, run_session
from repro.simnet.export import (
    FORMAT_VERSION, RECORD_DTYPE, TCP_DTYPE, load_trace, save_trace)
from repro.simnet.middlebox import CLIENT_TO_SERVER, SERVER_TO_CLIENT
from repro.simnet.packet import RecordInfo, TcpWireView, WireView
from repro.simnet.trace import TraceRecorder


def test_trace_roundtrip(tmp_path):
    result = run_session(SessionConfig(seed=0))
    path = tmp_path / "capture.jsonl"
    count = save_trace(result.trace, path)
    assert count == len(result.trace.packets(include_dropped=True))

    loaded = load_trace(path)
    assert len(loaded) == count
    original = result.trace.packets(SERVER_TO_CLIENT)
    reloaded = loaded.packets(SERVER_TO_CLIENT)
    assert len(reloaded) == len(original)
    assert [p.view.size for p in reloaded] == [p.view.size for p in original]


def test_analysis_works_on_reloaded_capture(tmp_path):
    result = run_session(SessionConfig(seed=1))
    path = tmp_path / "capture.jsonl"
    save_trace(result.trace, path)
    loaded = load_trace(path)
    original_estimates = SizeEstimator().estimate_from_trace(result.trace)
    loaded_estimates = SizeEstimator().estimate_from_trace(loaded)
    assert [e.size for e in loaded_estimates] == \
           [e.size for e in original_estimates]


def _typed(value):
    """``value`` with every leaf paired with its type, so that equality
    also tells ``True`` from ``1`` and ``1.0`` from ``1``."""
    if isinstance(value, tuple):
        return (type(value),) + tuple(_typed(v) for v in value)
    return (type(value), value)


def _assert_same_capture(loaded, live):
    """``loaded`` equals ``live`` column by column, types included."""
    got = loaded.packets(include_dropped=True)
    want = live.packets(include_dropped=True)
    assert len(loaded) == len(live) == len(want)
    assert [p.time for p in got] == [p.time for p in want]
    assert [type(p.time) for p in got] == [type(p.time) for p in want]
    assert [p.direction for p in got] == [p.direction for p in want]
    assert [_typed(p.view) for p in got] == [_typed(p.view) for p in want]
    assert [_typed(p.dropped) for p in got] == \
        [_typed(p.dropped) for p in want]
    for direction in (None, CLIENT_TO_SERVER, SERVER_TO_CLIENT):
        assert loaded.retransmit_count(direction) == \
            live.retransmit_count(direction)
    for direction in (CLIENT_TO_SERVER, SERVER_TO_CLIENT):
        for content_type in (23, None):
            assert [_typed(r) for r in loaded.completed_records(
                direction, content_type)] == [_typed(r) for r in
                                              live.completed_records(
                                                  direction, content_type)]


def test_attacked_capture_roundtrip_matches_live_recorder(tmp_path):
    live = run_session(SessionConfig(seed=0, attack=AttackConfig())).trace
    # Views a session never produces: no TCP header, and int flags.
    live(9.0, SERVER_TO_CLIENT, WireView(1, "server", "client", 60, None),
         False)
    live(9.1, CLIENT_TO_SERVER, WireView(
        2, "client", "server", 54, TcpWireView(40000, 443, 7, 9, 0, 0, 0, 0,
                                               1), (), 1), True)
    packets = live.packets(include_dropped=True)
    assert any(p.dropped for p in packets)
    assert live.retransmit_count(SERVER_TO_CLIENT) > 0
    assert any(p.view.tcp is not None and p.view.tcp.is_pure_ack
               for p in packets)
    assert any(r.content_type == 22 for p in packets for r in p.view.records)
    assert len(packets) > 2 * 256

    path = tmp_path / "capture.jsonl"
    assert save_trace(live, path) == len(packets)
    _assert_same_capture(load_trace(path), live)


#: A committed capture archive: the format check across numpy versions.
FIXTURE = Path(__file__).parent / "data" / "capture-v1.npz"
#: sha256 of ``repr(load_trace(FIXTURE).packets(include_dropped=True))``.
FIXTURE_SHA256 = (
    "7b9f7790bf4a693051242e65c149d251c925cb83c4efdbb71d97fa7e07e70e4a")


def _fixture_recorder():
    """The capture :data:`FIXTURE` holds (it was written with
    ``save_trace(_fixture_recorder(), FIXTURE)``): 300 packets in both
    directions with drops, retransmissions, records spanning packets,
    handshake records, views without a TCP header and int flags."""
    recorder = TraceRecorder()
    for i in range(300):
        flag = int if i % 17 == 0 else bool
        if i % 3:
            direction, src, dst = SERVER_TO_CLIENT, "server", "client"
        else:
            direction, src, dst = CLIENT_TO_SERVER, "client", "server"
        records = tuple(
            RecordInfo(i // 4 + k, 22 if i < 12 else 23, 4096 + 7 * k,
                       1024, flag(i % 4 == 0), flag(i % 4 == 3))
            for k in range(i % 3))
        tcp = None if i % 29 == 0 else TcpWireView(
            443, 40000 + i % 2, 1000 * i, 7 * i, 1024 * len(records),
            flag(i == 1), flag(i % 50 == 49), flag(False), flag(True))
        view = WireView(i + 1, src, dst, 54 + 1024 * len(records), tcp,
                        records, flag(i % 23 == 22))
        recorder(0.5 + i / 1024, direction, view, flag(i % 13 == 12))
    return recorder


def test_committed_capture_fixture_loads_unchanged():
    loaded = load_trace(FIXTURE)
    packets = loaded.packets(include_dropped=True)
    assert hashlib.sha256(repr(packets).encode()).hexdigest() == \
        FIXTURE_SHA256
    _assert_same_capture(loaded, _fixture_recorder())
    assert {p.direction for p in packets} == {CLIENT_TO_SERVER,
                                              SERVER_TO_CLIENT}
    assert any(p.dropped for p in packets)
    assert any(p.view.tcp is None for p in packets)
    assert any(type(p.dropped) is int for p in packets)
    assert any(type(p.view.is_retransmit) is int for p in packets)


def test_save_trace_writes_exactly_the_given_path(tmp_path):
    path = tmp_path / "x.jsonl"
    assert save_trace(_fixture_recorder(), path) == 300
    assert list(tmp_path.iterdir()) == [path]
    assert zipfile.is_zipfile(path)


def test_load_trace_empty_file(tmp_path):
    """A capture of no packets round-trips."""
    path = tmp_path / "empty.jsonl"
    assert save_trace(TraceRecorder(), path) == 0
    loaded = load_trace(path)
    assert len(loaded) == 0
    assert loaded.packets(include_dropped=True) == []
    assert loaded.completed_records(SERVER_TO_CLIENT, None) == []
    assert loaded.time_span() == (0.0, 0.0)
    assert loaded.retransmit_count() == 0


@pytest.mark.parametrize("flag", [2, -1, 1.0, None, "yes"])
def test_save_trace_refuses_flag_that_cannot_round_trip(tmp_path, flag):
    recorder = TraceRecorder()
    recorder(1.0, SERVER_TO_CLIENT, WireView(1, "server", "client", 60, None),
             flag)
    with pytest.raises(ValueError, match="flag"):
        save_trace(recorder, tmp_path / "bad.npz")


def _members(tmp_path):
    """The members of the fixture capture, as writable arrays."""
    path = tmp_path / "valid.npz"
    save_trace(_fixture_recorder(), path)
    with np.load(path) as archive:
        return {name: archive[name].copy() for name in archive.files}


def _write_members(path, members):
    with path.open("wb") as handle:
        np.savez(handle, **members)


def _refused(path):
    """``load_trace(path)`` raises ``ValueError`` naming ``path``."""
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_trace(path)


def _set(table, field, row, value):
    def mutate(members):
        members[table][field][row] = value
    return mutate


def _replace(name, value):
    def mutate(members):
        members[name] = value(members[name])
    return mutate


def _delete(name):
    def mutate(members):
        del members[name]
    return mutate


@pytest.mark.parametrize("mutate", [
    pytest.param(_delete("version"), id="no-version"),
    pytest.param(_delete("names"), id="no-names"),
    pytest.param(_delete("packets"), id="no-packets"),
    pytest.param(_delete("tcp"), id="no-tcp"),
    pytest.param(_delete("records"), id="no-records"),
    pytest.param(_replace("version", lambda v: np.array(
        FORMAT_VERSION + 1, dtype="<i8")), id="unknown-version"),
    pytest.param(_replace("version", lambda v: v.reshape(1)),
                 id="version-vector"),
    pytest.param(_replace("version", lambda v: v.astype("<f8")),
                 id="version-float"),
    pytest.param(_replace("names", lambda names: np.arange(len(names))),
                 id="names-ints"),
    pytest.param(_replace("names", lambda names: names.reshape(1, -1)),
                 id="names-matrix"),
    pytest.param(_replace("names", lambda names: names[[0, 1, 2, 3, 0]]),
                 id="names-repeated"),
    pytest.param(_replace("packets", lambda packets: packets["time"]),
                 id="packets-one-column"),
    pytest.param(_replace("packets", lambda packets: packets.reshape(2, -1)),
                 id="packets-matrix"),
    pytest.param(_replace("records", lambda records: records.astype(
        [(name, "<i4" if name == "wire_len" else dtype)
         for name, dtype in RECORD_DTYPE.descr])), id="records-narrow-int"),
    pytest.param(_replace("tcp", lambda tcp: tcp.astype(
        TCP_DTYPE.newbyteorder(">"))), id="tcp-big-endian"),
    pytest.param(_replace("records", lambda records: records[:-1]),
                 id="records-short"),
    pytest.param(_replace("tcp", lambda tcp: tcp[1:]), id="tcp-short"),
    pytest.param(_set("packets", "n_records", 1, 2), id="record-count"),
    pytest.param(_set("packets", "n_records", 0, -1),
                 id="record-count-negative"),
    pytest.param(_set("packets", "has_tcp", 1, False), id="has-tcp"),
    pytest.param(_set("packets", "direction", 5, 4), id="direction-index"),
    pytest.param(_set("packets", "src", 3, -1), id="src-index"),
    pytest.param(_set("packets", "dst", 3, 99), id="dst-index"),
    pytest.param(_set("packets", "dropped", 7, 4), id="dropped-code"),
    pytest.param(_set("tcp", "syn", 2, -1), id="syn-code"),
    pytest.param(_set("records", "is_end", 0, 9), id="is-end-code"),
    pytest.param(_replace("records", lambda records: np.array(
        [None], dtype=object)), id="records-object"),
    pytest.param(_replace("names", lambda names: names.astype(object)),
                 id="names-object"),
])
def test_load_trace_refuses_inconsistent_archive(tmp_path, mutate):
    members = _members(tmp_path)
    mutate(members)
    path = tmp_path / "broken.jsonl"
    _write_members(path, members)
    _refused(path)


@pytest.mark.parametrize("content", [
    b"",
    b'{"time": 0.0, "direction": "s2c"}\n',
    b"not a capture",
])
def test_load_trace_refuses_non_archive(tmp_path, content):
    path = tmp_path / "capture.jsonl"
    path.write_bytes(content)
    _refused(path)


def test_load_trace_refuses_npy_file(tmp_path):
    path = tmp_path / "capture.npy"
    with path.open("wb") as handle:
        np.save(handle, np.arange(5))
    _refused(path)


@pytest.mark.parametrize("keep", [0.25, 0.5, 0.9, 0.999])
def test_load_trace_refuses_truncated_archive(tmp_path, keep):
    path = tmp_path / "capture.jsonl"
    save_trace(_fixture_recorder(), path)
    data = path.read_bytes()
    path.write_bytes(data[:int(len(data) * keep)])
    _refused(path)


@pytest.mark.parametrize("field, value", [
    ("tcp", np.dtype(TCP_DTYPE.descr[:-1])),
    ("tcp", np.dtype(TCP_DTYPE.descr + [("urg", "i1")])),
    ("records", np.dtype(RECORD_DTYPE.descr[:-1])),
])
def test_load_trace_rejects_wrong_length_fields(tmp_path, field, value):
    """A header or record table one field short or long is refused."""
    members = _members(tmp_path)
    table = np.zeros(members[field].shape, dtype=value)
    for name in value.names:
        if name in members[field].dtype.names:
            table[name] = members[field][name]
    members[field] = table
    path = tmp_path / "short.jsonl"
    _write_members(path, members)
    _refused(path)


def test_parser_lists_all_experiments():
    parser = build_parser()
    commands = {"attack", "baseline", "table1", "figure5", "drops",
                "table2", "defenses", "size-estimation", "fingerprint",
                "streaming", "recovery-ablation"}
    text = parser.format_help()
    for command in commands:
        assert command in text


def test_cli_attack_runs(capsys):
    assert main(["attack", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "adversary decoded" in out
    assert "positions recovered" in out


def test_cli_size_estimation_runs(capsys):
    assert main(["size-estimation"]) == 0
    out = capsys.readouterr().out
    assert "serialized" in out and "multiplexed" in out


def test_cli_drops_small_n(capsys):
    assert main(["drops", "-n", "2"]) == 0
    assert "drop rate" in capsys.readouterr().out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])
