"""Capture export/import: one binary ``.npz`` archive of columns.

:func:`save_trace` writes a :class:`~repro.simnet.trace.TraceRecorder`
capture -- wire-view fields only, the same information a pcap of the
encrypted traffic carries -- and :func:`load_trace` reads it back for
offline analysis.  Every analysis component in :mod:`repro.core` and
:mod:`repro.analysis` works on re-loaded captures, so experiments can be
captured once and analysed many times.

The archive is one uncompressed ``np.savez`` with five members, every
multi-byte field little-endian:

``version``
    int64 scalar, :data:`FORMAT_VERSION`.
``names``
    unicode vector: the direction and host names, each once, in order
    of first use.  The packet table refers to them by index.
``packets``
    :data:`PACKET_DTYPE`, one row per packet in capture order:
    ``time`` (float64), ``direction`` (name index), ``dropped`` (flag),
    ``pid``, ``src`` and ``dst`` (name indices), ``size``, ``retx``
    (the view's ``is_retransmit`` flag), ``has_tcp`` (bool) and
    ``n_records``.
``tcp``
    :data:`TCP_DTYPE`, the header of each packet whose ``has_tcp`` is
    set, in capture order: ports, ``seq``, ``ack``, ``payload_len`` and
    the ``syn``/``fin``/``rst``/``is_ack`` flags.
``records``
    :data:`RECORD_DTYPE`, one row per record slice, each packet's
    ``n_records`` rows in turn: ``record_id``, ``content_type``,
    ``wire_len``, ``bytes_in_packet`` and the ``is_start``/``is_end``
    flags.

Integer fields are int64 (name indices and record counts int32), and
times are float64, so a Python float time round-trips exactly.  Flags
are int8 codes that keep the leaf type
(:data:`~repro.simnet.trace.FLAG_VALUES`): ``False``/``True`` are 0/1
and int ``0``/``1`` are 2/3, so a view recorded with int flags loads
with int flags, not ``bool`` ones.  :func:`save_trace` refuses any other
flag value.

:func:`load_trace` reads with ``np.load(..., allow_pickle=False)``, so
no member can carry a pickle, and it checks every member's dtype and
shape, that the record counts sum to the record table, that the
``has_tcp`` flags count the header table, and that every name index and
flag code is in range.  Any fault raises ``ValueError`` naming the file.
The loaded recorder is column-backed: the offline adversary reassembles
records straight from these columns (see :mod:`repro.simnet.trace`).

The archive is not compressed: a capture is a few hundred kilobytes,
and inflating it would cost more than reading it.  The format is told
by content, not by file name: :func:`save_trace` writes through an open
handle (``np.savez`` would append ``.npz`` to a string path), so a
capture saved as ``x.jsonl`` is exactly ``x.jsonl``.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.simnet.trace import (
    FLAG_VALUES, CaptureColumns, TraceRecorder, flag_code)

#: Version stored in, and required of, every capture archive.
FORMAT_VERSION = 1

PACKET_DTYPE = np.dtype([
    ("time", "<f8"), ("direction", "<i4"), ("dropped", "i1"),
    ("pid", "<i8"), ("src", "<i4"), ("dst", "<i4"), ("size", "<i8"),
    ("retx", "i1"), ("has_tcp", "?"), ("n_records", "<i4")])

TCP_DTYPE = np.dtype([
    ("src_port", "<i8"), ("dst_port", "<i8"), ("seq", "<i8"), ("ack", "<i8"),
    ("payload_len", "<i8"), ("syn", "i1"), ("fin", "i1"), ("rst", "i1"),
    ("is_ack", "i1")])

RECORD_DTYPE = np.dtype([
    ("record_id", "<i8"), ("content_type", "<i8"), ("wire_len", "<i8"),
    ("bytes_in_packet", "<i8"), ("is_start", "i1"), ("is_end", "i1")])


def save_trace(trace: TraceRecorder, path: Union[str, Path]) -> int:
    """Write the capture as a column archive; returns the packet count."""
    packets = trace.packets(include_dropped=True)
    names: Dict[str, int] = {}
    packet_rows: List[tuple] = []
    tcp_rows: List[tuple] = []
    record_rows: List[tuple] = []
    for time, direction, view, dropped in packets:
        tcp = view.tcp
        records = view.records
        packet_rows.append((
            time, names.setdefault(direction, len(names)),
            flag_code(dropped), view.pid,
            names.setdefault(view.src, len(names)),
            names.setdefault(view.dst, len(names)), view.size,
            flag_code(view.is_retransmit), tcp is not None, len(records)))
        if tcp is not None:
            tcp_rows.append(tcp[:5] + tuple(map(flag_code, tcp[5:])))
        for record in records:
            record_rows.append(record[:4] + (flag_code(record.is_start),
                                             flag_code(record.is_end)))
    with Path(path).open("wb") as handle:
        np.savez(handle,
                 version=np.array(FORMAT_VERSION, dtype="<i8"),
                 names=np.array(list(names), dtype=str),
                 packets=np.array(packet_rows, dtype=PACKET_DTYPE),
                 tcp=np.array(tcp_rows, dtype=TCP_DTYPE),
                 records=np.array(record_rows, dtype=RECORD_DTYPE))
    return len(packets)


def load_trace(path: Union[str, Path]) -> TraceRecorder:
    """Read a capture archive back into a (column-backed) recorder.

    Raises ``ValueError`` naming the file when it is not a capture
    archive of this format version or its tables do not fit together.
    """
    path = Path(path)
    with path.open("rb") as handle:
        try:
            columns = _read_columns(handle)
        except (ValueError, EOFError, OSError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return TraceRecorder.from_columns(columns)


def _read_columns(handle: BinaryIO) -> CaptureColumns:
    """The checked columns of the archive open in ``handle``."""
    if handle.read(4) != b"PK\x03\x04":
        raise ValueError("not a capture archive (no zip header)")
    handle.seek(0)
    with np.load(handle, allow_pickle=False) as archive:
        version = _member(archive, "version", np.dtype("<i8"), ())
        if int(version) != FORMAT_VERSION:
            raise ValueError(f"capture format version {int(version)}; "
                             f"this reader knows {FORMAT_VERSION}")
        names = _member(archive, "names")
        if names.dtype.kind != "U":
            raise ValueError(f"member 'names' is {names.dtype}, not "
                             f"strings")
        packets = _member(archive, "packets", PACKET_DTYPE)
        tcp = _member(archive, "tcp", TCP_DTYPE)
        records = _member(archive, "records", RECORD_DTYPE)
    names = tuple(names.tolist())
    if len(set(names)) != len(names):
        raise ValueError("member 'names' repeats a name")
    counts = packets["n_records"]
    if (counts < 0).any() or int(counts.sum()) != len(records):
        raise ValueError(f"packet record counts do not sum to the "
                         f"{len(records)} rows of 'records'")
    if int(packets["has_tcp"].sum()) != len(tcp):
        raise ValueError(f"packet TCP flags do not count the {len(tcp)} "
                         f"rows of 'tcp'")
    ranges = [(packets[field], len(names), f"packet {field} name index")
              for field in ("direction", "src", "dst")]
    ranges += [(table[field], len(FLAG_VALUES), f"{field} flag code")
               for table, fields in ((packets, ("dropped", "retx")),
                                     (tcp, ("syn", "fin", "rst", "is_ack")),
                                     (records, ("is_start", "is_end")))
               for field in fields]
    for column, bound, what in ranges:
        if ((column < 0) | (column >= bound)).any():
            raise ValueError(f"{what} outside 0..{bound - 1}")
    return CaptureColumns(packets, tcp, records, names)


def _member(archive: Any, name: str, dtype: Any = None,
            shape: Optional[Tuple[int, ...]] = None) -> np.ndarray:
    """Archive member ``name``, checked against ``dtype`` and ``shape``
    (a vector of any length when ``shape`` is None)."""
    if name not in archive.files:
        raise ValueError(f"missing member {name!r}")
    array = archive[name]
    if (dtype is not None and array.dtype != dtype) or (
            array.ndim != 1 if shape is None else array.shape != shape):
        raise ValueError(f"member {name!r} is {array.dtype} of shape "
                         f"{array.shape}; expected {dtype} of shape "
                         f"{'(n,)' if shape is None else shape}")
    return array
