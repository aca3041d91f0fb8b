"""Trace export/import and CLI tests."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.core.estimator import SizeEstimator
from repro.core.phases import AttackConfig
from repro.experiments.session import SessionConfig, run_session
from repro.simnet.export import load_trace, packet_from_dict, packet_to_dict, save_trace
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


def test_packet_dict_roundtrip_fields():
    result = run_session(SessionConfig(seed=0))
    captured = result.trace.packets()[0]
    data = json.loads(json.dumps(packet_to_dict(captured)))
    restored = packet_from_dict(data)
    assert restored.view == captured.view
    assert restored.time == captured.time


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


def _hand_written(count):
    """``count`` packet dicts with varied fields, as ``packet_to_dict``
    writes them."""
    rows = []
    for i in range(count):
        records = [[i, 23 if i % 3 else 22, 1400 + i, 700, i % 2 == 0,
                    i % 4 == 0]] * (i % 3)
        row = {"time": i * 0.001, "direction": ("s2c", "c2s")[i % 2],
               "dropped": i % 7 == 0, "pid": i + 1, "src": "server",
               "dst": "client", "size": 54 + i, "retx": i % 5 == 0,
               "records": records}
        if i % 10:
            row["tcp"] = [443, 40000, i * 100, 1, i, False, i % 9 == 0,
                          False, True]
        rows.append(row)
    return rows


def _per_line(lines):
    """The recorder a per-line decode of ``lines`` builds."""
    recorder = TraceRecorder()
    for line in lines:
        if line.strip():
            recorder(*packet_from_dict(json.loads(line)))
    return recorder


@pytest.mark.parametrize("count, blank_every, trailing_newline", [
    (256, 0, True),
    (257, 0, False),
    (700, 0, True),
    (700, 50, False),
    (255, 1, True),
])
def test_load_trace_batches_hand_written_files(tmp_path, count, blank_every,
                                               trailing_newline):
    lines = []
    for i, row in enumerate(_hand_written(count)):
        if blank_every and i % blank_every == 0:
            lines.append("   ")
        lines.append(json.dumps(row))
    path = tmp_path / "hand.jsonl"
    path.write_text("\n".join(lines) + ("\n" if trailing_newline else ""))
    loaded = load_trace(path)
    assert len(loaded) == count
    _assert_same_capture(loaded, _per_line(lines))


def test_load_trace_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n")
    assert len(load_trace(path)) == 0


def test_load_trace_names_line_of_truncated_capture(tmp_path):
    lines = [json.dumps(row) for row in _hand_written(300)]
    lines[-1] = lines[-1][:len(lines[-1]) // 2]
    path = tmp_path / "killed.jsonl"
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:300: ") as info:
        load_trace(path)
    assert isinstance(info.value.__cause__, json.JSONDecodeError)


@pytest.mark.parametrize("garbage", ["not json", "{}, {}", "]"])
def test_load_trace_names_line_of_garbage(tmp_path, garbage):
    lines = [json.dumps(row) for row in _hand_written(600)]
    lines[299] = garbage
    lines.insert(10, "")
    path = tmp_path / "garbage.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:301: ") as info:
        load_trace(path)
    assert isinstance(info.value.__cause__, json.JSONDecodeError)


@pytest.mark.parametrize("field, value", [
    ("tcp", [443, 40000, 1, 2, 3, False, False, False]),
    ("tcp", [443, 40000, 1, 2, 3, False, False, False, True, True]),
    ("records", [[1, 23, 1400, 700, True]]),
])
def test_load_trace_rejects_wrong_length_fields(tmp_path, field, value):
    row = _hand_written(1)[0]
    row["tcp"] = [443, 40000, 0, 1, 0, False, False, False, True]
    row[field] = value
    with pytest.raises(TypeError):
        packet_from_dict(row)
    path = tmp_path / "short.jsonl"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(TypeError):
        load_trace(path)


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
