"""Degree of multiplexing (Section II-A) and related ground-truth metrics.

The paper defines the degree of multiplexing of an object as "the
fraction of bytes of the object that is interleaved with those of
another object within the same TCP stream".  We operationalise it on
the server's transmission log: split the object's bytes into maximal
*runs* uninterrupted by foreign bytes (bytes of any other serve
instance landing inside the object's stream-offset span); the degree is
``1 - largest_run / total``.  An object transmitted as one
uninterrupted run has degree 0 -- the attack succeeds on an object only
when it reaches exactly that (Section V's criterion) -- and a heavily
interleaved object approaches 1.

These metrics read ground truth (which object each DATA frame belongs
to) and are therefore for evaluation only -- the adversary never sees
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class ServeSpan:
    """One serve instance's footprint in the TCP stream."""

    object_path: str
    serve_id: int
    duplicate: bool
    start_offset: int
    end_offset: int
    total_bytes: int
    #: (offset, length) of each DATA frame, in stream order.
    pieces: List[Tuple[int, int]]
    start_time: float
    end_time: float
    completed: bool


def serve_spans(tx_log: Sequence) -> Dict[Tuple[str, int], ServeSpan]:
    """Group a server transmission log into per-serve-instance spans."""
    spans: Dict[Tuple[str, int], ServeSpan] = {}
    for entry in tx_log:
        if not entry.is_data or not entry.object_path:
            continue
        key = (entry.object_path, entry.serve_id)
        span = spans.get(key)
        if span is None:
            spans[key] = ServeSpan(
                object_path=entry.object_path,
                serve_id=entry.serve_id,
                duplicate=entry.duplicate,
                start_offset=entry.tcp_offset,
                end_offset=entry.tcp_offset + entry.length,
                total_bytes=entry.length,
                pieces=[(entry.tcp_offset, entry.length)],
                start_time=entry.time,
                end_time=entry.time,
                completed=entry.end_stream,
            )
        else:
            span.end_offset = max(span.end_offset,
                                  entry.tcp_offset + entry.length)
            span.total_bytes += entry.length
            span.pieces.append((entry.tcp_offset, entry.length))
            span.end_time = entry.time
            span.completed = span.completed or entry.end_stream
    return spans


def _merge_intervals(intervals: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _gap_contains_foreign(gap_lo: int, gap_hi: int,
                          intervals: List[Tuple[int, int]]) -> bool:
    """Any foreign bytes in the half-open stream span [gap_lo, gap_hi)?"""
    for start, end in intervals:
        if end <= gap_lo:
            continue
        if start >= gap_hi:
            break
        return True
    return False


def degree_of_multiplexing(tx_log: Sequence, object_path: str,
                           serve_id: Optional[int] = None) -> float:
    """Degree of multiplexing of one serve instance of ``object_path``.

    With ``serve_id`` omitted the *first non-duplicate* serve instance
    is measured (the transmission the client's browser assembles).
    Returns a fraction in [0, 1]; raises ``KeyError`` when the object
    never appears in the log.
    """
    return _degree(serve_spans(tx_log), object_path, serve_id)


def _degree(spans: Dict[Tuple[str, int], ServeSpan], object_path: str,
            serve_id: Optional[int]) -> float:
    """:func:`degree_of_multiplexing` over an already grouped log."""
    target = _select_span(spans, object_path, serve_id)
    others = [span for key, span in spans.items()
              if key != (target.object_path, target.serve_id)]
    foreign = _merge_intervals(
        (piece_offset, piece_offset + piece_len)
        for span in others for piece_offset, piece_len in span.pieces
        if piece_offset + piece_len > target.start_offset
        and piece_offset < target.end_offset
    )
    if not foreign or target.total_bytes == 0:
        return 0.0

    # Split the object's pieces into maximal runs uninterrupted by
    # foreign bytes; degree = 1 - largest run / total bytes.
    pieces = sorted(target.pieces)
    largest = 0
    current = 0
    prev_end: Optional[int] = None
    for offset, length in pieces:
        if prev_end is not None and (
                offset > prev_end
                and _gap_contains_foreign(prev_end, offset, foreign)):
            largest = max(largest, current)
            current = 0
        current += length
        prev_end = offset + length
    largest = max(largest, current)
    return 1.0 - largest / target.total_bytes


def object_serialized(tx_log: Sequence, object_path: str,
                      require_completed: bool = True) -> bool:
    """True when *some* non-duplicate serve of the object has degree 0.

    This is the attack's per-object success condition on the ground
    truth side: the object crossed the wire fully un-interleaved at
    least once (e.g. the post-reset re-serve).
    """
    spans = serve_spans(tx_log)
    for (path, serve_id), span in spans.items():
        if path != object_path or span.duplicate:
            continue
        if require_completed and not span.completed:
            continue
        if _degree(spans, path, serve_id) == 0.0:
            return True
    return False


def _select_span(spans: Dict[Tuple[str, int], ServeSpan], object_path: str,
                 serve_id: Optional[int]) -> ServeSpan:
    if serve_id is not None:
        return spans[(object_path, serve_id)]
    candidates = [span for (path, _), span in spans.items()
                  if path == object_path and not span.duplicate]
    if not candidates:
        raise KeyError(f"object {object_path!r} not in transmission log")
    return min(candidates, key=lambda span: span.start_offset)


def mean_degree(tx_log: Sequence, object_paths: Iterable[str]) -> float:
    """Average degree over several objects (first non-dup serve each)."""
    spans = serve_spans(tx_log)
    degrees = [_degree(spans, path, None) for path in object_paths]
    return sum(degrees) / len(degrees) if degrees else 0.0
