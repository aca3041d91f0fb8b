"""Trace recorder and packet wire-view tests."""

import tempfile
from pathlib import Path
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.export import load_trace, save_trace
from repro.simnet.middlebox import CLIENT_TO_SERVER, SERVER_TO_CLIENT
from repro.simnet.packet import (
    HEADER_OVERHEAD, Packet, RecordInfo, TcpWireView, WireView)
from repro.simnet.trace import CompletedRecord, TraceRecorder
from repro.tcp.segment import RecordSlice, TcpSegment
from repro.tls.record import APPLICATION_DATA, HANDSHAKE, TlsRecord
from tests.test_export_cli import _typed


def seg_packet(record, offset=0, length=None, retx=0, src="server",
               dst="client"):
    length = length if length is not None else record.wire_len - offset
    seg = TcpSegment(src=src, dst=dst, src_port=443, dst_port=40000,
                     seq=0, payload_len=length,
                     slices=(RecordSlice(record, offset, length),),
                     retx_count=retx)
    return Packet(src=src, dst=dst, size=HEADER_OVERHEAD + length,
                  segment=seg)


def app_record(payload=1379):
    return TlsRecord(content_type=APPLICATION_DATA, payload_len=payload)


def test_wire_view_exposes_cleartext_only_fields():
    record = app_record(100)
    packet = seg_packet(record)
    view = packet.wire_view()
    assert view.size == HEADER_OVERHEAD + record.wire_len
    assert view.tcp.src_port == 443
    assert view.has_application_data
    assert view.application_bytes == record.wire_len
    info = view.records[0]
    assert info.content_type == APPLICATION_DATA
    assert info.record_wire_len == record.wire_len
    assert info.is_start and info.is_end


def test_wire_view_partial_record_slices():
    record = app_record(2000)
    first = seg_packet(record, offset=0, length=1000).wire_view()
    second = seg_packet(record, offset=1000).wire_view()
    assert first.records[0].is_start and not first.records[0].is_end
    assert not second.records[0].is_start and second.records[0].is_end


def test_pure_ack_view():
    seg = TcpSegment(src="client", dst="server", src_port=40000, dst_port=443)
    view = Packet(src="client", dst="server", size=HEADER_OVERHEAD,
                  segment=seg).wire_view()
    assert view.tcp.is_pure_ack
    assert not view.has_application_data


def test_recorder_stores_and_filters():
    recorder = TraceRecorder()
    record = app_record()
    recorder(0.1, CLIENT_TO_SERVER, seg_packet(record, src="client",
                                               dst="server").wire_view(), False)
    recorder(0.2, SERVER_TO_CLIENT, seg_packet(record).wire_view(), False)
    recorder(0.3, SERVER_TO_CLIENT, seg_packet(record).wire_view(), True)
    assert len(recorder) == 3
    assert len(recorder.packets(SERVER_TO_CLIENT)) == 1
    assert len(recorder.packets(SERVER_TO_CLIENT, include_dropped=True)) == 2
    assert len(recorder.application_packets(CLIENT_TO_SERVER)) == 1


def test_recorder_completed_records_single_packet():
    recorder = TraceRecorder()
    record = app_record(500)
    recorder(1.0, SERVER_TO_CLIENT, seg_packet(record).wire_view(), False)
    completed = recorder.completed_records(SERVER_TO_CLIENT)
    assert len(completed) == 1
    assert completed[0].wire_len == record.wire_len
    assert completed[0].start_time == completed[0].end_time == 1.0


def test_recorder_reassembles_multi_packet_record():
    recorder = TraceRecorder()
    record = app_record(3000)
    recorder(1.0, SERVER_TO_CLIENT,
             seg_packet(record, 0, 1400).wire_view(), False)
    recorder(1.1, SERVER_TO_CLIENT,
             seg_packet(record, 1400, 1400).wire_view(), False)
    recorder(1.2, SERVER_TO_CLIENT,
             seg_packet(record, 2800).wire_view(), False)
    completed = recorder.completed_records(SERVER_TO_CLIENT)
    assert len(completed) == 1
    assert completed[0].start_time == 1.0
    assert completed[0].end_time == 1.2


def test_recorder_dropped_packets_do_not_complete_records():
    recorder = TraceRecorder()
    record = app_record(500)
    recorder(1.0, SERVER_TO_CLIENT, seg_packet(record).wire_view(), True)
    assert recorder.completed_records(SERVER_TO_CLIENT) == []


def test_recorder_content_type_filter():
    recorder = TraceRecorder()
    handshake = TlsRecord(content_type=HANDSHAKE, payload_len=400)
    recorder(1.0, SERVER_TO_CLIENT, seg_packet(handshake).wire_view(), False)
    assert recorder.completed_records(SERVER_TO_CLIENT, content_type=23) == []
    assert len(recorder.completed_records(SERVER_TO_CLIENT,
                                          content_type=None)) == 1


def test_recorder_retransmit_filter():
    recorder = TraceRecorder()
    record = app_record(100)
    recorder(1.0, CLIENT_TO_SERVER,
             seg_packet(record, retx=1, src="client").wire_view(), False)
    recorder(1.1, CLIENT_TO_SERVER,
             seg_packet(record, src="client").wire_view(), False)
    assert len(recorder.retransmitted_packets()) == 1


def test_recorder_time_span_and_clear():
    recorder = TraceRecorder()
    assert recorder.time_span() == (0.0, 0.0)
    record = app_record(100)
    recorder(1.0, SERVER_TO_CLIENT, seg_packet(record).wire_view(), False)
    recorder(3.0, SERVER_TO_CLIENT, seg_packet(record).wire_view(), False)
    assert recorder.time_span() == (1.0, 3.0)
    recorder.clear()
    assert len(recorder) == 0


def test_recorder_count_predicate():
    recorder = TraceRecorder()
    record = app_record(100)
    for t in (1.0, 2.0, 3.0):
        recorder(t, SERVER_TO_CLIENT, seg_packet(record).wire_view(), False)
    assert recorder.count(lambda p: p.time > 1.5) == 2


def _records_recorder():
    """Two complete app-data records and one handshake record server to
    client, one app-data record client to server."""
    recorder = TraceRecorder()
    recorder(1.0, SERVER_TO_CLIENT, seg_packet(app_record(500)).wire_view(),
             False)
    recorder(1.1, SERVER_TO_CLIENT, seg_packet(TlsRecord(
        content_type=HANDSHAKE, payload_len=300)).wire_view(), False)
    recorder(1.2, SERVER_TO_CLIENT, seg_packet(app_record(900)).wire_view(),
             False)
    recorder(1.3, CLIENT_TO_SERVER, seg_packet(
        app_record(80), src="client", dst="server").wire_view(), False)
    return recorder


def test_completed_records_memo_returns_fresh_lists():
    recorder = _records_recorder()
    first = recorder.completed_records(SERVER_TO_CLIENT)
    second = recorder.completed_records(SERVER_TO_CLIENT)
    assert first == second and len(first) == 2
    assert first is not second
    first.clear()
    second.append("junk")
    third = recorder.completed_records(SERVER_TO_CLIENT)
    assert len(third) == 2 and "junk" not in third


def test_completed_records_memo_sees_appends():
    recorder = _records_recorder()
    before = recorder.completed_records(SERVER_TO_CLIENT)
    recorder(2.0, SERVER_TO_CLIENT, seg_packet(app_record(700)).wire_view(),
             False)
    after = recorder.completed_records(SERVER_TO_CLIENT)
    assert after[:len(before)] == before
    assert len(after) == len(before) + 1
    assert after[-1].wire_len == app_record(700).wire_len
    assert after[-1].end_time > before[-1].end_time
    # A dropped packet is never reassembled, but it still invalidates.
    recorder(2.1, SERVER_TO_CLIENT, seg_packet(app_record(700)).wire_view(),
             True)
    assert recorder.completed_records(SERVER_TO_CLIENT) == after


def test_completed_records_memo_cleared():
    recorder = _records_recorder()
    assert recorder.completed_records(SERVER_TO_CLIENT)
    recorder.clear()
    assert recorder.completed_records(SERVER_TO_CLIENT) == []
    # Refill, unqueried, to the length the cache was stamped with.
    recorder = _records_recorder()
    assert len(recorder.completed_records(SERVER_TO_CLIENT)) == 2
    recorder.clear()
    for t in (1.0, 1.1, 1.2, 1.3):
        recorder(t, SERVER_TO_CLIENT, seg_packet(app_record(60)).wire_view(),
                 False)
    assert [r.end_time for r in recorder.completed_records(
        SERVER_TO_CLIENT)] == [1.0, 1.1, 1.2, 1.3]


def test_completed_records_memo_keys_independent():
    recorder = _records_recorder()
    app = recorder.completed_records(SERVER_TO_CLIENT)
    every = recorder.completed_records(SERVER_TO_CLIENT, content_type=None)
    upstream = recorder.completed_records(CLIENT_TO_SERVER)
    handshake = recorder.completed_records(SERVER_TO_CLIENT,
                                           content_type=HANDSHAKE)
    assert [r.content_type for r in app] == [APPLICATION_DATA] * 2
    assert [r.content_type for r in every] == \
        [APPLICATION_DATA, HANDSHAKE, APPLICATION_DATA]
    assert [r.direction for r in upstream] == [CLIENT_TO_SERVER]
    assert [r.content_type for r in handshake] == [HANDSHAKE]
    assert recorder.completed_records(SERVER_TO_CLIENT) == app
    # Asked first, without the other keys cached, it is the same.
    fresh = TraceRecorder()
    for captured in recorder.packets(include_dropped=True):
        fresh(*captured)
    assert fresh.completed_records(SERVER_TO_CLIENT, content_type=None) == \
        every


def test_completed_records_memo_holds_current_length_only():
    recorder = TraceRecorder()
    keys = ((SERVER_TO_CLIENT, 23), (SERVER_TO_CLIENT, None),
            (CLIENT_TO_SERVER, 23))
    for n in range(1, 13):
        recorder(n * 0.1, SERVER_TO_CLIENT,
                 seg_packet(app_record(100 + n)).wire_view(), False)
        queried = keys[:n % len(keys) + 1]
        for direction, content_type in queried:
            recorder.completed_records(direction, content_type)
        assert recorder._records_len == len(recorder) == n
        assert sorted(recorder._records, key=repr) == \
            sorted(queried, key=repr)
        assert len(recorder.completed_records(SERVER_TO_CLIENT)) == n


def _reference_reassemble(self, direction: str,
                          content_type: Optional[int]) -> List[CompletedRecord]:
    """Reference model: the per-view reassembly loop that the row loop
    replaced, kept verbatim (``self`` is a live recorder)."""
    open_records: dict = {}
    completed: List[CompletedRecord] = []
    for time, d, view, dropped in zip(self._times, self._directions,
                                      self._views, self._dropped):
        if d != direction or dropped:
            continue
        for key, ctype, wire_len, _, is_start, is_end in view.records:
            if content_type is not None and ctype != content_type:
                continue
            if is_start or key not in open_records:
                open_records[key] = time
            if is_end:
                start_time = open_records.pop(key, time)
                completed.append(CompletedRecord(
                    key, ctype, wire_len, start_time, time, d, view.size))
    return completed


_FLAGS = st.sampled_from([False, True, 0, 1])

#: Record slices of few ids, so records span packets, interleave and
#: are re-sent after they completed.
_SLICES = st.lists(st.builds(
    RecordInfo, st.integers(0, 4), st.sampled_from([22, 23]),
    st.integers(29, 16406), st.integers(1, 1400), _FLAGS, _FLAGS),
    max_size=3).map(tuple)

_TCP = st.none() | st.builds(
    TcpWireView, st.sampled_from([443, 40000]), st.sampled_from([443, 40000]),
    st.integers(0, 2 ** 40), st.integers(0, 2 ** 40), st.integers(0, 1400),
    _FLAGS, _FLAGS, _FLAGS, _FLAGS)

_PACKETS = st.lists(st.tuples(
    st.integers(0, 3), st.sampled_from([SERVER_TO_CLIENT, CLIENT_TO_SERVER]),
    st.builds(WireView, st.integers(1, 10 ** 6),
              st.sampled_from(["server", "client"]),
              st.sampled_from(["client", "server"]),
              st.integers(54, 1500), _TCP, _SLICES, _FLAGS),
    _FLAGS), max_size=40)


@settings(max_examples=150, deadline=None)
@given(packets=_PACKETS, data=st.data())
def test_reassembly_matches_reference_model(packets, data):
    """Live views, a saved and loaded capture, and a loaded capture the
    tap appended to all reassemble as the reference model does."""
    live = TraceRecorder()
    now = 0.0
    for gap, direction, view, dropped in packets:
        now += gap / 8
        live(now, direction, view, dropped)
    split = data.draw(st.integers(0, len(packets)), label="split")
    head = TraceRecorder()
    for captured in live.packets(include_dropped=True)[:split]:
        head(*captured)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "capture.npz"
        save_trace(live, path)
        loaded = load_trace(path)
        save_trace(head, path)
        extended = load_trace(path)
    for captured in live.packets(include_dropped=True)[split:]:
        extended(*captured)
    for direction in (SERVER_TO_CLIENT, CLIENT_TO_SERVER):
        for content_type in (23, None):
            want = [_typed(r) for r in
                    _reference_reassemble(live, direction, content_type)]
            for recorder in (live, loaded, extended):
                assert [_typed(r) for r in recorder.completed_records(
                    direction, content_type)] == want
    assert loaded._views == []
    assert extended._views == [p.view for p in
                               live.packets(include_dropped=True)[split:]]
    for recorder in (loaded, extended):
        assert [_typed(p) for p in recorder.packets(include_dropped=True)] \
            == [_typed(p) for p in live.packets(include_dropped=True)]


def _lossy_recorder():
    """:func:`_records_recorder` plus a record spanning two packets, a
    dropped packet, a retransmission each way and a view without TCP."""
    recorder = _records_recorder()
    record = app_record(2000)
    recorder(1.4, SERVER_TO_CLIENT, seg_packet(record, 0, 1000).wire_view(),
             False)
    recorder(1.5, SERVER_TO_CLIENT, seg_packet(record, 1000).wire_view(),
             True)
    recorder(1.6, SERVER_TO_CLIENT,
             seg_packet(record, 1000, retx=1).wire_view(), False)
    recorder(1.7, CLIENT_TO_SERVER, seg_packet(
        app_record(90), retx=2, src="client", dst="server").wire_view(), False)
    recorder(1.8, SERVER_TO_CLIENT, WireView(99, "server", "client", 60,
                                             None), False)
    return recorder


def test_loaded_recorder_builds_views_only_when_asked(tmp_path):
    live = _lossy_recorder()
    path = tmp_path / "capture.npz"
    save_trace(live, path)
    loaded = load_trace(path)
    # The offline adversary's queries read the columns only.
    assert len(loaded) == len(live) == 9
    assert loaded.time_span() == live.time_span()
    for direction in (None, SERVER_TO_CLIENT, CLIENT_TO_SERVER):
        assert loaded.retransmit_count(direction) == \
            live.retransmit_count(direction)
    assert loaded.retransmit_count() == 2
    for direction in (SERVER_TO_CLIENT, CLIENT_TO_SERVER):
        for content_type in (23, 22, None):
            assert loaded.completed_records(direction, content_type) == \
                live.completed_records(direction, content_type)
    assert loaded._views == [] and loaded._columns is not None
    # Packet queries build the views once.
    assert loaded.packets() == live.packets()
    assert loaded._columns is None
    assert loaded.packets(SERVER_TO_CLIENT, include_dropped=True) == \
        live.packets(SERVER_TO_CLIENT, include_dropped=True)
    for direction in (SERVER_TO_CLIENT, CLIENT_TO_SERVER):
        assert loaded.application_packets(direction) == \
            live.application_packets(direction)
    assert loaded.retransmitted_packets() == live.retransmitted_packets()
    assert loaded.count(lambda p: p.view.tcp is None) == 1
    # A tap append invalidates the memo and shows in reassembly.
    before = loaded.completed_records(SERVER_TO_CLIENT)
    view = seg_packet(app_record(700)).wire_view()
    for recorder in (loaded, live):
        recorder(2.0, SERVER_TO_CLIENT, view, False)
    after = loaded.completed_records(SERVER_TO_CLIENT)
    assert after == live.completed_records(SERVER_TO_CLIENT)
    assert after[:-1] == before
    assert after[-1].wire_len == app_record(700).wire_len
    loaded.clear()
    assert len(loaded) == 0 and loaded.packets(include_dropped=True) == []
    assert loaded.completed_records(SERVER_TO_CLIENT) == []
    assert loaded.retransmit_count() == 0


def test_loaded_recorder_tap_append_before_views_are_built(tmp_path):
    live = _lossy_recorder()
    path = tmp_path / "capture.npz"
    save_trace(live, path)
    loaded = load_trace(path)
    view = seg_packet(app_record(700)).wire_view()
    for recorder in (loaded, live):
        recorder(2.0, SERVER_TO_CLIENT, view, False)
    assert loaded._columns is not None and loaded._views == [view]
    assert loaded.completed_records(SERVER_TO_CLIENT, None) == \
        live.completed_records(SERVER_TO_CLIENT, None)
    assert loaded.retransmit_count() == live.retransmit_count()
    assert loaded.packets(include_dropped=True) == \
        live.packets(include_dropped=True)


def test_loaded_recorder_clear_forgets_unbuilt_views(tmp_path):
    path = tmp_path / "capture.npz"
    save_trace(_lossy_recorder(), path)
    loaded = load_trace(path)
    loaded.clear()
    assert loaded.completed_records(SERVER_TO_CLIENT, None) == []
    view = seg_packet(app_record(700)).wire_view()
    loaded(2.0, SERVER_TO_CLIENT, view, False)
    assert len(loaded.completed_records(SERVER_TO_CLIENT)) == 1
    assert [p.view for p in loaded.packets()] == [view]


def test_topology_wiring():
    from repro.simnet.engine import Simulator
    from repro.simnet.topology import StandardTopology, TopologyConfig
    sim = Simulator()
    topo = StandardTopology(sim, TopologyConfig(client_propagation_s=0.004,
                                                server_propagation_s=0.008))
    assert topo.base_rtt_s() == pytest.approx(0.024)
    # A packet from the client transits the middlebox and gets captured.
    record = app_record(100)
    topo.client.send_packet(seg_packet(record, src="client", dst="server"))
    sim.run(until=1.0)
    assert len(topo.trace) == 1
    assert topo.trace.packets(CLIENT_TO_SERVER)


def test_result_table_formatting():
    from repro.experiments.results import ResultTable
    table = ResultTable("Title", ["a", "bb"])
    table.add_row(1, 2.345)
    table.add_row("xx", "yy")
    text = table.to_text()
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert "2.3" in text and "xx" in text
    with pytest.raises(ValueError):
        table.add_row(1)
