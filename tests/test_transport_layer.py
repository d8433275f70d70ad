"""Transport-layer refactor invariants.

* DES bit-identity: the crash_restart chaos battery (24 seeds) and two
  instrumented fig5-style run reports, replayed through the
  transport-session code, must reproduce every field pinned in
  ``benchmarks/transport_baseline.json``.  New fields may appear
  (counters grow over PRs); pinned ones may not drift.
* wire framing round-trips and rejects malformed datagrams;
* the session registry and its stats rollups;
* UDP smoke: the live multi-process demo's verdict — alarms, quarantine
  transitions, released-sequence fingerprint — matches the DES twin on
  the same packet-index fault schedule.
"""

import json
import os

import pytest

from repro.analysis.tasks import chaos_run
from repro.chaos.schedule import builtin_battery
from repro.net import IpAddress, MacAddress, Packet
from repro.obs.summary import build_run_report
from repro.transport import (
    ROLE_COLLECT,
    ROLE_FANOUT,
    ROLE_RELEASE,
    DesTransport,
    SessionSpec,
    TransportError,
)
from repro.transport.wire import (
    MSG_BYE,
    MSG_DATA,
    MSG_HELLO,
    decode_message,
    encode_message,
)

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "transport_baseline.json"
)


def load_baseline():
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def assert_subset(baseline, current, path="$"):
    """Every baseline field must exist and be equal in current output.

    Keys *added* since the baseline was pinned are fine — stats grow over
    PRs — but a pinned value drifting means the refactor changed the DES
    backend's behaviour.
    """
    if isinstance(baseline, dict):
        assert isinstance(current, dict), f"{path}: expected dict, got {type(current).__name__}"
        for key, value in baseline.items():
            assert key in current, f"{path}.{key}: missing from current output"
            assert_subset(value, current[key], f"{path}.{key}")
    elif isinstance(baseline, list):
        assert isinstance(current, list), f"{path}: expected list, got {type(current).__name__}"
        assert len(baseline) == len(current), (
            f"{path}: length {len(current)} != baseline {len(baseline)}"
        )
        for index, (b_item, c_item) in enumerate(zip(baseline, current)):
            assert_subset(b_item, c_item, f"{path}[{index}]")
    else:
        assert baseline == current, f"{path}: {current!r} != baseline {baseline!r}"


# ----------------------------------------------------------------------
# DES bit-identity vs the pre-refactor baseline
# ----------------------------------------------------------------------
class TestDesBitIdentity:
    baseline = load_baseline()

    @pytest.mark.parametrize("seed", sorted(load_baseline()["chaos"], key=int))
    def test_chaos_record_identical(self, seed):
        workload = self.baseline["workloads"]["chaos"]
        schedule = builtin_battery()[workload["schedule"]].to_dict()
        record = chaos_run(
            schedule,
            int(seed),
            variant=workload["variant"],
            duration=workload["duration"],
        )
        assert_subset(self.baseline["chaos"][seed], record, f"chaos[{seed}]")

    @pytest.mark.parametrize("seed", sorted(load_baseline()["obs"], key=int))
    def test_obs_report_identical(self, seed):
        report, _runs = build_run_report(quick=True, seed=int(seed))
        assert_subset(self.baseline["obs"][seed], report.to_dict(), f"obs[{seed}]")


# ----------------------------------------------------------------------
# wire framing
# ----------------------------------------------------------------------
class TestWireFraming:
    def test_data_round_trip(self):
        payload = bytes(range(64))
        data = encode_message(
            MSG_DATA, ROLE_COLLECT, "sA", payload,
            branch=2, claim=7, seq=41, t_ns=123456789,
        )
        msg = decode_message(data)
        assert msg.mtype == MSG_DATA
        assert msg.role == ROLE_COLLECT
        assert msg.scope == "sA"
        assert msg.branch == 2
        assert msg.claim == 7
        assert msg.seq == 41
        assert msg.t_ns == 123456789
        assert msg.payload == payload
        assert msg.meta() == {"branch": 2, "claim": 7, "seq": 41}

    def test_none_branch_and_claim(self):
        msg = decode_message(encode_message(MSG_HELLO, ROLE_FANOUT, "compare"))
        assert msg.branch is None and msg.claim is None
        assert msg.payload == b""
        assert msg.mtype == MSG_HELLO

    def test_packet_payload_survives(self):
        packet = Packet.udp(
            MacAddress.from_index(1), MacAddress.from_index(2),
            IpAddress.from_index(1), IpAddress.from_index(2),
            50000, 5001, payload=b"x" * 40, ident=9,
        )
        data = encode_message(
            MSG_DATA, ROLE_FANOUT, "sA", bytes(packet.to_bytes()), branch=0,
        )
        decoded = Packet.parse(decode_message(data).payload)
        assert bytes(decoded.to_bytes()) == bytes(packet.to_bytes())

    def test_rejects_malformed(self):
        good = encode_message(MSG_BYE, ROLE_RELEASE, "sB")
        with pytest.raises(TransportError):
            decode_message(good[:4])  # truncated header
        with pytest.raises(TransportError):
            decode_message(b"XX" + good[2:])  # bad magic
        with pytest.raises(TransportError):
            decode_message(good[:2] + bytes([99]) + good[3:])  # bad version
        with pytest.raises(TransportError):
            encode_message(MSG_DATA, "sideways", "sA")  # unknown role
        with pytest.raises(TransportError):
            encode_message(MSG_DATA, ROLE_FANOUT, "s" * 300)  # scope too long


# ----------------------------------------------------------------------
# session registry
# ----------------------------------------------------------------------
def _pkt(ident=0, payload=b"hello"):
    return Packet.udp(
        MacAddress.from_index(1), MacAddress.from_index(2),
        IpAddress.from_index(1), IpAddress.from_index(2),
        5, 5, payload=payload, ident=ident,
    )


class _RecordingPort:
    """Stands in for a DES port: keeps what the session hands it."""

    def __init__(self):
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)


class TestSessions:
    def test_session_memoised_by_spec(self):
        transport = DesTransport(sim=None)
        spec = SessionSpec("sA", ROLE_COLLECT, 1)
        first = transport.session(spec, port=_RecordingPort())
        assert transport.session(spec) is first
        other = transport.session(
            SessionSpec("sA", ROLE_COLLECT, 2), port=_RecordingPort()
        )
        assert other is not first
        with pytest.raises(TransportError):
            transport.session(SessionSpec("sB", ROLE_COLLECT, 1))

    def test_spec_validation(self):
        with pytest.raises(TransportError):
            SessionSpec("sA", "sideways").validate()
        with pytest.raises(TransportError):
            SessionSpec("", ROLE_COLLECT).validate()

    def test_des_session_counts_both_directions(self):
        transport = DesTransport(sim=None)
        port = _RecordingPort()
        session = transport.attach(SessionSpec("sA", ROLE_FANOUT, 0), port)
        got = []
        session.set_receiver(lambda p, m: got.append((p, m)))
        packet = _pkt()
        session.send(packet)
        assert port.sent == [packet]  # ownership transfer: no copy
        session.deliver(packet, {"branch": 0})
        assert got == [(packet, {"branch": 0})]
        assert transport.stats()["fanout:sA:0"] == {
            "tx_messages": 1, "rx_messages": 1, "drops": 0,
        }


# ----------------------------------------------------------------------
# UDP loopback smoke: live verdict == DES verdict
# ----------------------------------------------------------------------
class TestUdpSmoke:
    def test_udp_transport_loopback_delivery(self):
        """Two in-process UdpTransports exchange one framed packet."""
        import asyncio

        from repro.transport.udp import UdpTransport

        async def scenario():
            rx = UdpTransport(("127.0.0.1", 0), name="rx")
            await rx.start()
            tx = UdpTransport(("127.0.0.1", 0), name="tx")
            await tx.start()
            got = asyncio.Event()
            messages = []

            def on_message(packet, meta):
                messages.append((packet, meta))
                got.set()

            spec = SessionSpec("sA", ROLE_COLLECT, 2)
            rx.session(spec).set_receiver(on_message)
            tx.session(spec, remote=rx.local_address()).send(
                _pkt(ident=5), branch=2, claim=1
            )
            await asyncio.wait_for(got.wait(), timeout=5.0)
            tx.close()
            rx.close()
            return messages

        messages = asyncio.run(scenario())
        assert len(messages) == 1
        packet, meta = messages[0]
        assert meta["branch"] == 2 and meta["claim"] == 1 and meta["seq"] == 0
        assert bytes(packet.to_bytes()) == bytes(_pkt(ident=5).to_bytes())

    def test_live_demo_matches_des_twin(self):
        """The multi-process UDP demo and the DES backend agree on the
        verdict for the default crash schedule: same alarms, same
        quarantine transitions, same released-sequence fingerprint."""
        from repro.live.demo import run_live_demo

        report = run_live_demo(packets=120, interval=0.005)
        assert report["live"]["sent"] == 120
        assert report["live"]["released"] == 120  # crash masked by quorum
        assert ["branch_quarantined", 1] in report["live"]["alarms"]
        assert report["live"]["quarantined"] == [1]
        assert report["match"], f"verdicts differ: {report['diffs']}"
