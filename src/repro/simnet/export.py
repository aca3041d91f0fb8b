"""Capture export/import.

Dumps a :class:`~repro.simnet.trace.TraceRecorder` to JSON-lines (one
packet per line, wire-view fields only -- the same information a pcap
of the encrypted traffic carries) and loads it back for offline
analysis.  Every analysis component in :mod:`repro.core` and
:mod:`repro.analysis` works on re-loaded captures, so experiments can be
captured once and analysed many times.

Loading is dominated by JSON decoding, so :func:`load_trace` reads the
file in batches of :data:`_BATCH_LINES` lines and decodes each batch
with one ``json.loads`` of the lines joined into a JSON array: one
decoder call per batch instead of one per packet.  It does not decode
the whole file at once: that is no faster, and it holds every decoded
packet dict of the capture alive at the same time, which roughly
doubles the load's peak memory.  A line that fails to decode is
reported as ``path:line``.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import List, Tuple, Union

from repro.simnet.packet import RecordInfo, TcpWireView, WireView
from repro.simnet.trace import CapturedPacket, TraceRecorder

#: Lines read and decoded per ``json.loads`` call in :func:`load_trace`.
_BATCH_LINES = 256


def packet_to_dict(captured: CapturedPacket) -> dict:
    """Serializable form of one captured packet."""
    view = captured.view
    out = {
        "time": captured.time,
        "direction": captured.direction,
        "dropped": captured.dropped,
        "pid": view.pid,
        "src": view.src,
        "dst": view.dst,
        "size": view.size,
        "retx": view.is_retransmit,
        "records": [
            [r.record_id, r.content_type, r.record_wire_len,
             r.bytes_in_packet, r.is_start, r.is_end]
            for r in view.records
        ],
    }
    if view.tcp is not None:
        tcp = view.tcp
        out["tcp"] = [tcp.src_port, tcp.dst_port, tcp.seq, tcp.ack,
                      tcp.payload_len, tcp.syn, tcp.fin, tcp.rst, tcp.is_ack]
    return out


def _fields(data: dict) -> Tuple[float, str, WireView, bool]:
    """``(time, direction, view, dropped)`` of one decoded packet dict:
    the inverse of :func:`packet_to_dict`, in the tap's argument order.
    ``_make`` rejects a header or record list of the wrong length
    (``TcpWireView(*tcp)`` would fill missing flags with defaults)."""
    tcp = data.get("tcp")
    view = WireView(data["pid"], data["src"], data["dst"], data["size"],
                    None if tcp is None else TcpWireView._make(tcp),
                    tuple(map(RecordInfo._make, data["records"])),
                    data["retx"])
    return data["time"], data["direction"], view, data["dropped"]


def packet_from_dict(data: dict) -> CapturedPacket:
    """Inverse of :func:`packet_to_dict`."""
    return CapturedPacket(*_fields(data))


def save_trace(trace: TraceRecorder, path: Union[str, Path]) -> int:
    """Write the capture as JSON lines; returns the packet count."""
    path = Path(path)
    packets = trace.packets(include_dropped=True)
    with path.open("w") as handle:
        for captured in packets:
            handle.write(json.dumps(packet_to_dict(captured)) + "\n")
    return len(packets)


def _raise_at_bad_line(path: Path, first_line: int,
                       lines: List[str]) -> None:
    """Re-decode a batch that failed as a whole line by line and raise
    ``ValueError`` naming the first bad line; the batch starts at 1-based
    file line ``first_line``.  Only the error path runs this."""
    for lineno, line in enumerate(lines, first_line):
        line = line.strip()
        if not line:
            continue
        try:
            json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    raise ValueError(f"{path}:{first_line}: batch does not decode")


def load_trace(path: Union[str, Path]) -> TraceRecorder:
    """Read a JSON-lines capture back into a recorder.

    Blank lines are skipped.  Raises ``ValueError`` naming the file and
    1-based line of the first line that is not valid JSON.
    """
    path = Path(path)
    recorder = TraceRecorder()
    first_line = 1
    with path.open() as handle:
        while True:
            lines = list(islice(handle, _BATCH_LINES))
            if not lines:
                break
            batch = [line for line in map(str.strip, lines) if line]
            try:
                rows = json.loads("[" + ",".join(batch) + "]")
            except json.JSONDecodeError:
                rows = ()
            # A failed decode leaves no rows; a line holding two
            # comma-separated values decodes as two: either way the
            # count differs and the bad line is found and reported.
            if len(rows) != len(batch):
                _raise_at_bad_line(path, first_line, lines)
            for row in rows:
                recorder(*_fields(row))
            first_line += len(lines)
    return recorder
