"""Pcap-like capture of wire views at the middlebox.

The adversary's traffic monitor (``tshark`` in the paper) and the
offline analysis both consume these captures.  Only
:class:`~repro.simnet.packet.WireView` data is stored -- the capture is
exactly what a real on-path sniffer would have.

Storage is columnar and append-only: the per-packet tap appends one
scalar to each of four parallel arrays instead of allocating a
``CapturedPacket`` object per packet, and running counters (packets per
direction, retransmissions) are maintained at append time so the
telemetry the session runner reads after every run is O(1) instead of a
full-trace scan.  ``CapturedPacket`` remains the *view* type: accessor
methods materialize it lazily for analysis code, which runs once per
session rather than once per packet.

Record reassembly is memoized: the estimator, the feature extractor and
the replay each ask for the same ``completed_records`` of one capture.
Because the recorder is append-only, a cached result stays valid until
the packet count changes; the cache is stamped with that count and
dropped whole when it moves (or on :meth:`TraceRecorder.clear`).
Reassembly itself is one loop over flat record rows ``(time, size,
record_id, content_type, wire_len, is_start, is_end)``, fed from the
captured views or from a loaded capture's columns.

Views are lazy in a recorder loaded from a saved capture
(:func:`repro.simnet.export.load_trace`, :meth:`TraceRecorder.from_columns`).
It keeps the capture's packet, TCP-header and record tables
(:class:`CaptureColumns`) and fills only the time, direction and
dropped lists and the retransmission counters from them.  ``__len__``,
:meth:`~TraceRecorder.time_span`, :meth:`~TraceRecorder.retransmit_count`
and :meth:`~TraceRecorder.completed_records` read the columns and build
no :class:`~repro.simnet.packet.WireView`; the offline adversary needs
nothing else.  The views are built once, ahead of any packet the tap
appended after the load, the first time :meth:`~TraceRecorder.packets`
(and so ``application_packets``, ``retransmitted_packets`` and
``count``) asks for them.  The columns are numpy structured arrays, but
this module only calls their methods: the simulator never imports numpy.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple)

from repro.simnet.packet import RecordInfo, TcpWireView, WireView

#: Leaf value of each code in a capture's flag columns.  A flag keeps
#: its type across a save and load: ``False``/``True`` are codes 0/1,
#: int ``0``/``1`` are codes 2/3, and ``code & 1`` is its truth value.
FLAG_VALUES = (False, True, 0, 1)


def flag_code(flag: Any) -> int:
    """The code of ``flag`` in a flag column (see :data:`FLAG_VALUES`);
    ``ValueError`` for a flag that is neither a bool nor int 0/1."""
    if flag is True or flag is False:
        return int(flag)
    if type(flag) is int and flag in (0, 1):
        return flag + 2
    raise ValueError(f"flag {flag!r} is neither a bool nor int 0/1")


#: ``(time, size, record_id, content_type, wire_len, is_start, is_end)``
#: of one record slice: the packet's capture time and on-wire size,
#: then the slice's cleartext record header fields.
RecordRow = Tuple[float, int, int, int, int, Any, Any]


def _rows(table: Any, fields: Tuple[str, ...],
          flags: Tuple[str, ...]) -> Iterable[tuple]:
    """Rows of a column table as tuples of Python values: ``fields`` as
    stored, then ``flags`` decoded through :data:`FLAG_VALUES`.  One
    ``tolist()`` per column: a structured array's own ``tolist()`` is
    several times slower."""
    flag = FLAG_VALUES.__getitem__
    return zip(*[table[field].tolist() for field in fields],
               *[list(map(flag, table[field].tolist())) for field in flags])


class CapturedPacket(NamedTuple):
    """One packet as seen transiting the middlebox."""

    time: float
    direction: str
    view: WireView
    dropped: bool


class CompletedRecord(NamedTuple):
    """A TLS record whose last byte has been observed.

    ``start_time``/``end_time`` bracket the packets that carried it;
    ``wire_len`` includes the 5-byte record header and AEAD overhead,
    both visible on the wire.
    """

    record_id: int
    content_type: int
    wire_len: int
    start_time: float
    end_time: float
    direction: str
    #: Size of the packet that carried the record's final byte.  Sub-MTU
    #: final packets are the delimiters of Fig. 1.
    final_packet_size: int


class CaptureColumns(NamedTuple):
    """A saved capture as columns (layout and dtypes in
    :mod:`repro.simnet.export`)."""

    #: One row per packet, in capture order.
    packets: Any
    #: One row per packet whose ``has_tcp`` is set, in capture order.
    tcp: Any
    #: One row per record slice: each packet's ``n_records`` rows in turn.
    records: Any
    #: Direction and host names; ``packets`` holds indices into it.
    names: Tuple[str, ...]


class TraceRecorder:
    """Accumulates captured packets and derives record-level views."""

    __slots__ = ("include_dropped", "_times", "_directions", "_views",
                 "_dropped", "_retransmits", "_records", "_records_len",
                 "_columns")

    def __init__(self, include_dropped: bool = True):
        self.include_dropped = include_dropped
        self._times: List[float] = []
        self._directions: List[str] = []
        self._views: List[WireView] = []
        self._dropped: List[bool] = []
        #: direction -> retransmitted-packet count (dropped included),
        #: maintained at append time for O(1) session telemetry.
        self._retransmits: dict = {}
        #: (direction, content_type) -> reassembled records, valid while
        #: the packet count equals ``_records_len``.
        self._records: Dict[Tuple[str, Optional[int]],
                            List[CompletedRecord]] = {}
        self._records_len = 0
        #: A loaded capture whose views are not built yet: they belong
        #: ahead of every view in ``_views``.
        self._columns: Optional[CaptureColumns] = None

    @classmethod
    def from_columns(cls, columns: CaptureColumns) -> "TraceRecorder":
        """A recorder over a saved capture that builds no view until one
        is asked for (see the module docstring)."""
        recorder = cls()
        packets = columns.packets
        names = columns.names
        directions = packets["direction"]
        recorder._times = packets["time"].tolist()
        recorder._directions = list(map(names.__getitem__,
                                        directions.tolist()))
        recorder._dropped = list(map(FLAG_VALUES.__getitem__,
                                     packets["dropped"].tolist()))
        retransmitted = directions[(packets["retx"] & 1).astype(bool)]
        for index, name in enumerate(names):
            count = int((retransmitted == index).sum())
            if count:
                recorder._retransmits[name] = count
        recorder._columns = columns
        return recorder

    # The middlebox tap signature.
    def __call__(self, now: float, direction: str, view: WireView, dropped: bool) -> None:
        if dropped and not self.include_dropped:
            return
        self._times.append(now)
        self._directions.append(direction)
        self._views.append(view)
        self._dropped.append(dropped)
        if view.is_retransmit:
            self._retransmits[direction] = \
                self._retransmits.get(direction, 0) + 1

    def __len__(self) -> int:
        return len(self._times)

    def clear(self) -> None:
        """Forget everything captured so far."""
        self._times.clear()
        self._directions.clear()
        self._views.clear()
        self._dropped.clear()
        self._retransmits.clear()
        self._records.clear()
        self._columns = None

    def _build_views(self) -> None:
        """Build a loaded capture's views, ahead of any the tap appended
        after the load; a no-op once built."""
        columns = self._columns
        if columns is None:
            return
        self._columns = None
        names = columns.names
        packets = columns.packets
        # ``tuple.__new__`` skips each NamedTuple's Python-level
        # ``__new__``, as in ``_reassemble``.
        new = tuple.__new__
        headers = (new(TcpWireView, row) for row in _rows(
            columns.tcp, ("src_port", "dst_port", "seq", "ack", "payload_len"),
            ("syn", "fin", "rst", "is_ack")))
        infos = [new(RecordInfo, row) for row in _rows(
            columns.records,
            ("record_id", "content_type", "wire_len", "bytes_in_packet"),
            ("is_start", "is_end"))]
        views = []
        end = 0
        for pid, src, dst, size, has_tcp, n_records, retx in _rows(
                packets, ("pid", "src", "dst", "size", "has_tcp",
                          "n_records"), ("retx",)):
            start, end = end, end + n_records
            views.append(new(WireView, (
                pid, names[src], names[dst], size,
                next(headers) if has_tcp else None, tuple(infos[start:end]),
                retx)))
        self._views[:0] = views

    def packets(self, direction: Optional[str] = None,
                include_dropped: bool = False) -> List[CapturedPacket]:
        """Captured packets, optionally filtered by direction."""
        self._build_views()
        return [
            CapturedPacket(t, d, v, x)
            for t, d, v, x in zip(self._times, self._directions,
                                  self._views, self._dropped)
            if (direction is None or d == direction)
            and (include_dropped or not x)
        ]

    def application_packets(self, direction: str) -> List[CapturedPacket]:
        """Forwarded packets carrying TLS application data (type 23)."""
        return [
            p for p in self.packets(direction)
            if p.view.has_application_data
        ]

    def completed_records(self, direction: str,
                          content_type: Optional[int] = 23) -> List[CompletedRecord]:
        """Reassemble record-level sizes from the packet slices.

        Follows delivered (non-dropped) packets only, since only those
        reach the far endpoint.  Records are emitted in order of their
        final slice.  Retransmitted duplicate slices of an already
        completed record start a fresh logical record, mirroring what a
        sniffer tracking the byte stream sees as duplicated spans.

        Returns a fresh list each call; the reassembly itself is cached
        until the next packet is captured.
        """
        if self._records_len != len(self._times):
            self._records.clear()
            self._records_len = len(self._times)
        key = (direction, content_type)
        records = self._records.get(key)
        if records is None:
            records = self._records[key] = self._reassemble(direction,
                                                            content_type)
        return list(records)

    def _reassemble(self, direction: str,
                    content_type: Optional[int]) -> List[CompletedRecord]:
        rows: Iterable[RecordRow] = self._view_rows(direction, content_type)
        if self._columns is not None:
            rows = chain(self._column_rows(direction, content_type), rows)
        # ``tuple.__new__`` builds the same CompletedRecord without the
        # Python-level ``__new__`` frame, the dearest step of a row.
        new = tuple.__new__
        open_records: dict = {}
        completed: List[CompletedRecord] = []
        for time, size, key, ctype, wire_len, is_start, is_end in rows:
            if is_end:
                # The final slice closes the record its key opened; one
                # that is also a first slice, or finds no open record,
                # starts the record at its own time.
                start_time = open_records.pop(key, time)
                completed.append(new(CompletedRecord, (
                    key, ctype, wire_len, time if is_start else start_time,
                    time, direction, size)))
            elif is_start or key not in open_records:
                open_records[key] = time
        return completed

    def _view_rows(self, direction: str,
                   content_type: Optional[int]) -> Iterable[RecordRow]:
        """Record rows of the delivered ``direction`` packets whose view
        is built."""
        times, directions, dropped = self._times, self._directions, \
            self._dropped
        skip = len(times) - len(self._views)
        if skip:
            times, directions, dropped = \
                times[skip:], directions[skip:], dropped[skip:]
        for time, d, view, x in zip(times, directions, self._views, dropped):
            if d != direction or x:
                continue
            size = view.size
            for key, ctype, wire_len, _, is_start, is_end in view.records:
                if content_type is None or ctype == content_type:
                    yield time, size, key, ctype, wire_len, is_start, is_end

    def _column_rows(self, direction: str,
                     content_type: Optional[int]) -> Iterable[RecordRow]:
        """Record rows of the delivered ``direction`` packets of a loaded
        capture, filtered on the columns before any row is built."""
        columns = self._columns
        if direction not in columns.names:
            return ()
        packets = columns.packets
        records = columns.records
        counts = packets["n_records"]
        keep = ((packets["direction"] == columns.names.index(direction))
                & ((packets["dropped"] & 1) == 0)).repeat(counts)
        if content_type is not None:
            keep &= records["content_type"] == content_type
        records = records[keep]
        return zip(packets["time"].repeat(counts)[keep].tolist(),
                   packets["size"].repeat(counts)[keep].tolist(),
                   records["record_id"].tolist(),
                   records["content_type"].tolist(),
                   records["wire_len"].tolist(),
                   (records["is_start"] & 1).tolist(),
                   (records["is_end"] & 1).tolist())

    def count(self, predicate: Callable[[CapturedPacket], bool]) -> int:
        """Number of captured packets satisfying ``predicate``."""
        return sum(1 for p in self.packets(include_dropped=True)
                   if predicate(p))

    def retransmit_count(self, direction: Optional[str] = None) -> int:
        """O(1) count of packets flagged as TCP retransmissions
        (dropped packets included, matching a seq-tracking sniffer)."""
        if direction is not None:
            return self._retransmits.get(direction, 0)
        return sum(self._retransmits.values())

    def retransmitted_packets(self, direction: Optional[str] = None) -> List[CapturedPacket]:
        """Packets flagged as TCP retransmissions (inferable from seq reuse)."""
        return [p for p in self.packets(direction, include_dropped=True)
                if p.view.is_retransmit]

    def time_span(self) -> Tuple[float, float]:
        """(first, last) capture timestamps; (0, 0) when empty."""
        if not self._times:
            return (0.0, 0.0)
        return (self._times[0], self._times[-1])
