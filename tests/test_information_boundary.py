"""The adversary's information boundary, enforced structurally.

The paper's adversary is non-intrusive: cleartext headers and sizes
only.  These tests pin the boundary down so refactors cannot quietly
hand the attack code ground truth.  The structural pins are backed by
the interprocedural LEAK taint pass (repro.lint.taint): the mutation
test below injects a synthetic leak into a fixture observer and proves
LEAK001 catches it with the exact multi-hop ``via`` trace, so the
boundary holds even for flows the token scan cannot see.
"""

import inspect
import textwrap

import pytest

from repro.simnet.packet import RecordInfo, TcpWireView, WireView


def test_wireview_fields_are_cleartext_only():
    field_names = set(WireView._fields)
    assert field_names == {"pid", "src", "dst", "size", "tcp", "records",
                           "is_retransmit"}


def test_recordinfo_carries_no_plaintext():
    field_names = set(RecordInfo._fields)
    # Header-derivable facts only: no payload, no object reference.
    assert field_names == {"record_id", "content_type", "record_wire_len",
                           "bytes_in_packet", "is_start", "is_end"}
    assert "payload" not in field_names


def test_tcp_view_has_no_payload_reference():
    field_names = set(TcpWireView._fields)
    assert "slices" not in field_names
    assert "payload" not in field_names


@pytest.mark.parametrize("module_name", [
    "repro.core.observer",
    "repro.core.controller",
    "repro.core.estimator",
    "repro.core.predictor",
    "repro.core.planner",
    "repro.core.deinterleave",
    "repro.core.wire",
])
def test_adversary_modules_never_import_ground_truth(module_name):
    """Attack-side modules must not read the server's transmission log,
    website objects, or frame plaintext."""
    import importlib
    module = importlib.import_module(module_name)
    source = inspect.getsource(module)
    forbidden = (
        "tx_log",                      # server ground truth
        "object_ref",                  # frame attribution
        "repro.website",               # site internals
        "frame.headers",               # plaintext header dicts
        "record.payload",              # record plaintext
    )
    for token in forbidden:
        assert token not in source, (module_name, token)


def test_metrics_module_is_evaluation_only():
    """The degree metric is allowed to read ground truth -- and the
    attack pipeline must not call it."""
    import inspect

    import repro.core.adversary as adversary
    source = inspect.getsource(adversary)
    assert "degree_of_multiplexing" not in source


def test_quic_wire_view_is_opaque():
    from repro.quic.frames import QuicPacket, StreamFrame
    from repro.simnet.packet import Packet
    packet = Packet(src="a", dst="b", size=100,
                    segment=QuicPacket(frames=(StreamFrame(0, 0, 50),)))
    view = packet.wire_view()
    assert view.tcp is None
    assert view.records == ()
    assert not view.is_retransmit


# -- mutation test: the static boundary actually bites ------------------------

#: A faithful observer shape, with one injected leak: the handler reads
#: ``obj.size`` off the ground-truth WebObject instead of ``view.size``
#: off the sanctioned wire view.
_LEAKY_OBSERVER = textwrap.dedent("""\
    from repro.website.objects import WebObject


    class TrafficMonitor:
        def __init__(self):
            self._census = []

        def on_transit(self, view, obj: WebObject):
            if view.size > 0:
                self._census.append(obj.size)
""")


def test_injected_leak_is_caught_by_leak001_with_exact_trace():
    """Mutation test: hand a fixture observer ground truth and the
    taint pass must fail it -- with the full source->branch->sink via
    trace, not just a line number."""
    from repro.lint import lint_source
    findings = lint_source(_LEAKY_OBSERVER, "repro.core.observer",
                           path="observer.py", select=["LEAK001"])
    (finding,) = findings
    assert finding.code == "LEAK001"
    assert finding.law == "ADV_INFO_BOUNDARY"
    assert (finding.line, finding.col) == (10, 12)
    assert finding.trace == (
        "observer.py:8: parameter 'obj' of TrafficMonitor.on_transit() "
        "is typed WebObject (ground truth)",
        "observer.py:9: branch `if view.size > 0:` is taken",
        "observer.py:10: ground truth flows into self._census "
        "(adversary state)",
    )


def test_repaired_observer_passes_leak001():
    """The same fixture reading the sanctioned wire view instead is
    clean: the mutation test fails for the right reason."""
    from repro.lint import lint_source
    repaired = _LEAKY_OBSERVER.replace("obj.size", "view.size")
    assert lint_source(repaired, "repro.core.observer",
                       path="observer.py", select=["LEAK001"]) == []
