"""Outside-in per-layer trace of the NetCo simulator.

The program is not edited: :class:`LayerTrace` replaces public entry
points of each layer with timing wrappers for the duration of one pass
and restores them afterwards.  Three kinds of hook exist:

* **spans** around the entry points named in ``_SPANS`` (``Port.send``,
  ``FlowTable.lookup``, ``CompareCore.submit``, ...).  A span's *self
  time* is its duration minus the spans nested inside it, so the self
  times of all layers partition the traced wall time;
* **callback spans**: every callback handed to ``Simulator.schedule_at``
  or bound on a host UDP/TCP socket is wrapped in a span of the layer
  whose module defined it (a ``Timer``/``PeriodicTask`` is resolved to
  the callback it drives).  The engine's own self time is therefore only
  the event loop; a callback from a module outside every layer is
  booked as ``unattributed``, never as engine time;
* **instance registries**: ``__init__`` of a few classes records each
  instance so the program's own counters (events fired, flow-table index
  hits, expired votes, TCP retransmissions, ...) are read once per pass
  instead of per packet.

Counts are exact and repeat run to run; self times are host seconds.
Wrapper cost lands in the self time of the span that made the call, so
self times compare only between traced runs.  The trace reads two
private fields, ``Timer._callback`` and ``PeriodicTask._callback``, to
find the owner of a timer; renaming them fails the traced run loudly.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.adversary.behaviors import AdversarialBehavior
from repro.analysis import tasks
from repro.core.alarms import AlarmSink
from repro.core.combiner import CompareHost
from repro.core.compare import CompareCore
from repro.core.endpoint import CombinerEndpoint
from repro.core.hub import Hub
from repro.ctrl.compare import ControlCompare
from repro.farm.executor import FarmExecutor
from repro.net.host import Host
from repro.net.link import Link
from repro.net.node import Port
from repro.net.packet import Packet
from repro.openflow.flowtable import FlowTable
from repro.openflow.switch import OpenFlowSwitch
from repro.sim.engine import CpuResource, EventHandle, PeriodicTask, Simulator, Timer
from repro.sim.trace import TraceBus
from repro.traffic.tcp import TcpReceiver, TcpSender
from repro.traffic.udp import UdpReceiver
from repro.transport.des import DesSession

#: module prefix -> layer; the longest matching prefix wins
LAYER_OF_MODULE: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.sim.trace": "trace",
    "repro.net": "node",
    "repro.net.packet": "packet",
    "repro.net.link": "link",
    "repro.openflow": "openflow",
    "repro.apps": "openflow",
    "repro.core.endpoint": "endpoint",
    "repro.core.hub": "endpoint",
    "repro.core.combiner": "endpoint",
    "repro.core.compare": "compare",
    "repro.core.votes": "compare",
    "repro.core.membership": "compare",
    "repro.core.policy": "compare",
    "repro.core.alarms": "compare",
    "repro.core.sampling": "compare",
    "repro.ctrl": "ctrl",
    "repro.transport": "transport",
    "repro.traffic": "traffic",
    "repro.chaos": "adversary",
    "repro.adversary": "adversary",
    "repro.scenarios": "scenarios",
    "repro.plan": "plan",
    "repro.farm": "plan",
    "repro.analysis": "plan",
}

#: every layer a self time is reported for, in report order
LAYERS = (
    "sim", "packet", "link", "node", "openflow", "endpoint", "compare",
    "ctrl", "transport", "traffic", "adversary", "trace", "scenarios",
    "plan", "unattributed",
)

#: (owner, attribute, layer, count key) of every plain span
_SPANS: Tuple[Tuple[Any, str, str, str], ...] = (
    (Simulator, "run", "sim", "sim.run"),
    (CpuResource, "acquire", "sim", "sim.cpu_grant"),
    (Packet, "copy", "packet", "packet.copy"),
    (Port, "send", "node", "node.send"),
    (Port, "deliver", "node", "node.deliver"),
    (Host, "receive", "node", "node.host_receive"),
    (Link, "send_from", "link", "link.tx"),
    (FlowTable, "lookup", "openflow", "openflow.probe"),
    (Hub, "receive", "endpoint", "endpoint.hub_receive"),
    (CompareHost, "receive", "endpoint", "endpoint.compare_host_receive"),
    (CompareCore, "submit", "compare", "compare.vote"),
    (AlarmSink, "raise_alarm", "compare", "compare.alarm"),
    (ControlCompare, "submit", "ctrl", "ctrl.vote"),
    (DesSession, "send", "transport", "transport.send"),
    (TraceBus, "emit", "trace", "trace.record"),
    (FarmExecutor, "run", "plan", "plan.cell"),
    (tasks, "build_scenario", "scenarios", "scenarios.build"),
    (tasks, "build_ctrl_testbed", "scenarios", "scenarios.build"),
)

#: classes whose instances are recorded so their counters can be read
_TRACKED = (
    Simulator, Link, FlowTable, CompareCore, ControlCompare,
    CombinerEndpoint, TcpSender, AdversarialBehavior,
)


def layer_of_module(module: Optional[str]) -> str:
    best = ""
    for prefix in LAYER_OF_MODULE:
        if module and (module == prefix or module.startswith(prefix + ".")):
            if len(prefix) > len(best):
                best = prefix
    return LAYER_OF_MODULE[best] if best else "unattributed"


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class LayerTrace:
    """One traced pass: install, run the cells, uninstall, read counts."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.instances: Dict[type, List[Any]] = defaultdict(list)
        self._stack: List[float] = []
        self._patches = _Patches()
        self._layer_by_module: Dict[Optional[str], str] = {}

    # ------------------------------------------------------------------
    # span machinery
    # ------------------------------------------------------------------
    def _span(self, layer: str, key: Optional[str], fn: Callable) -> Callable:
        return functools.wraps(fn)(self._bare_span(layer, key, fn))

    def _bare_span(self, layer: str, key: Optional[str], fn: Callable) -> Callable:
        """The span closure without ``functools.wraps`` (built per event)."""
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            if key is not None:
                counts[key] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return span

    def _layer_of_callback(self, callback: Callable) -> str:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, (Timer, PeriodicTask)):
            callback = owner._callback
        module = getattr(getattr(callback, "__func__", callback), "__module__", None)
        layer = self._layer_by_module.get(module)
        if layer is None:
            layer = self._layer_by_module[module] = layer_of_module(module)
        return layer

    def _callback_span(self, callback: Callable) -> Callable:
        return self._bare_span(self._layer_of_callback(callback), None, callback)

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        patch = self._patches.set
        for owner, name, layer, key in _SPANS:
            patch(owner, name, self._span(layer, key, owner.__dict__[name]))
        self._install_switch_receive()
        self._install_packet_to_bytes()
        self._install_scheduling()
        self._install_sockets()
        self._install_behaviors()
        for cls in _TRACKED:
            self._track(cls)

    def uninstall(self) -> None:
        self._patches.undo()

    def _install_switch_receive(self) -> None:
        """Endpoints inherit ``OpenFlowSwitch.receive``; book them to
        the endpoint layer and plain switches to openflow."""
        original = OpenFlowSwitch.__dict__["receive"]
        as_switch = self._span("openflow", "openflow.receive", original)
        as_endpoint = self._span("endpoint", "endpoint.receive", original)

        def receive(switch: OpenFlowSwitch, packet: Packet, in_port: Port) -> None:
            if isinstance(switch, CombinerEndpoint):
                as_endpoint(switch, packet, in_port)
            else:
                as_switch(switch, packet, in_port)

        self._patches.set(OpenFlowSwitch, "receive", receive)

    def _install_packet_to_bytes(self) -> None:
        counts = self.counts
        timed = self._span("packet", "packet.to_bytes", Packet.__dict__["to_bytes"])

        def to_bytes(packet: Packet) -> bytes:
            if packet.wire_cache() is not None:
                counts["packet.wire_cache_hit"] += 1
            return timed(packet)

        self._patches.set(Packet, "to_bytes", to_bytes)

    def _install_scheduling(self) -> None:
        counts = self.counts
        callback_span = self._callback_span
        schedule_at = self._span(
            "sim", "sim.schedule", Simulator.__dict__["schedule_at"]
        )
        cancel = self._span("sim", None, EventHandle.__dict__["cancel"])
        timer_cancel = self._span("sim", None, Timer.__dict__["cancel"])
        layer_of = self._layer_of_callback

        def schedule_at_traced(sim: Simulator, when: float, callback: Callable):
            return schedule_at(sim, when, callback_span(callback))

        def cancel_traced(handle: EventHandle) -> None:
            live = not handle.cancelled
            cancel(handle)
            if live and handle.cancelled:
                counts["sim.cancel"] += 1

        def timer_cancel_traced(timer: Timer) -> None:
            if timer.running and layer_of(timer._callback) == "traffic":
                counts["traffic.timer_cancel"] += 1
            timer_cancel(timer)

        self._patches.set(Simulator, "schedule_at", schedule_at_traced)
        self._patches.set(EventHandle, "cancel", cancel_traced)
        self._patches.set(Timer, "cancel", timer_cancel_traced)

    def _install_sockets(self) -> None:
        """Socket handlers are the traffic layer's receive entry points."""
        callback_span = self._callback_span
        for name in ("bind_udp", "bind_tcp"):
            def bind(host, port, handler, _original=Host.__dict__[name]):
                _original(host, port, callback_span(handler))

            self._patches.set(Host, name, bind)

    def _install_behaviors(self) -> None:
        """Every adversarial behaviour's ``handle`` is an adversary span."""
        pending, seen = [AdversarialBehavior], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if "handle" in cls.__dict__:
                self._patches.set(
                    cls, "handle",
                    self._span("adversary", "adversary.handle", cls.__dict__["handle"]),
                )

    def _track(self, cls: type) -> None:
        original = cls.__dict__["__init__"]
        instances = self.instances[cls]

        @functools.wraps(original)
        def __init__(obj, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            instances.append(obj)

        self._patches.set(cls, "__init__", __init__)

    # ------------------------------------------------------------------
    # reading the program's own counters
    # ------------------------------------------------------------------
    def instance_counts(self) -> Dict[str, int]:
        """Sum the tracked instances' counters (call after the pass)."""
        inst = self.instances.__getitem__
        links = [d for link in inst(Link) for d in link.directions()]
        tables = inst(FlowTable)
        return {
            "sim.events": sum(s.events_processed for s in inst(Simulator)),
            "link.drops": sum(
                stats.queue_drops + stats.loss_drops + stats.fault_drops
                for _name, stats, _depth in links
            ),
            "openflow.lookups": sum(t.lookups for t in tables),
            "openflow.index_hits": sum(t.index_hits for t in tables),
            "compare.expired": sum(
                c.stats.expired_unreleased for c in inst(CompareCore)
            ),
            "ctrl.released": sum(c.stats.released for c in inst(ControlCompare)),
            "endpoint.collects": sum(
                e.estats.collected for e in inst(CombinerEndpoint)
            ),
            "endpoint.releases": sum(
                e.estats.released_out for e in inst(CombinerEndpoint)
            ),
            "tcp.retx": sum(s.retransmits for s in inst(TcpSender)),
            "adversary.tampered": sum(
                b.packets_tampered for b in inst(AdversarialBehavior)
            ),
        }

    def exact_counts(self) -> Counter:
        """Every count of the pass: span calls plus instance counters."""
        counts = Counter(self.counts)
        counts.update(self.instance_counts())
        return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    traces: List[LayerTrace],
    speeds: List[float],
    dgrams: int,
    tcp_segments: int,
    build_ms: float,
    overhead_ratio: float,
    failed_frac: float,
) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics of identical traced passes.

    Counts come from the first pass (the caller checks the passes agree);
    self times are the mean over the passes, each pass's host times scaled
    by its ``speeds`` factor to the host probe's reference speed.
    """
    c = traces[0].exact_counts()
    self_s = {
        layer: statistics.mean(
            t.self_s.get(layer, 0.0) * speed for t, speed in zip(traces, speeds))
        for layer in LAYERS
    }

    def per_dgram(count: float) -> Tuple[float, str]:
        return count / dgrams, "count/dgram"

    def per_segment(count: float) -> Tuple[float, str]:
        return _ratio(count, tcp_segments), "count/segment"

    values = {
        "sim.events_per_dgram": per_dgram(c["sim.events"]),
        "sim.schedules_per_dgram": per_dgram(c["sim.schedule"]),
        "sim.cancelled_frac": (_ratio(c["sim.cancel"], c["sim.schedule"]), "frac"),
        "sim.cpu_grants_per_dgram": per_dgram(c["sim.cpu_grant"]),
        "packet.copies_per_dgram": per_dgram(c["packet.copy"]),
        "packet.serialise_per_dgram": per_dgram(
            c["packet.to_bytes"] - c["packet.wire_cache_hit"]),
        "packet.wire_cache_hit_frac": (
            _ratio(c["packet.wire_cache_hit"], c["packet.to_bytes"]), "frac"),
        "link.tx_per_dgram": per_dgram(c["link.tx"]),
        "link.drops_per_dgram": per_dgram(c["link.drops"]),
        "node.deliver_per_dgram": per_dgram(c["node.deliver"]),
        "openflow.receives_per_dgram": per_dgram(c["openflow.receive"]),
        "openflow.probes_per_dgram": per_dgram(c["openflow.probe"]),
        "openflow.index_hit_frac": (
            _ratio(c["openflow.index_hits"], c["openflow.lookups"]), "frac"),
        "endpoint.collects_per_dgram": per_dgram(c["endpoint.collects"]),
        "endpoint.releases_per_dgram": per_dgram(c["endpoint.releases"]),
        "compare.votes_per_dgram": per_dgram(c["compare.vote"]),
        "compare.expired_per_dgram": per_dgram(c["compare.expired"]),
        "compare.alarms": (c["compare.alarm"], "count"),
        "ctrl.votes_per_flowmod": (
            _ratio(c["ctrl.vote"], c["ctrl.released"]), "count/flowmod"),
        "transport.sends_per_dgram": per_dgram(c["transport.send"]),
        "tcp.retx_per_segment": per_segment(c["tcp.retx"]),
        "tcp.timer_cancels_per_segment": per_segment(c["traffic.timer_cancel"]),
        "adversary.tampered_per_dgram": per_dgram(c["adversary.tampered"]),
        "trace.records_per_dgram": per_dgram(c["trace.record"]),
        "scenarios.build_ms": (build_ms, "ms/build"),
        "plan.self_ms": (self_s["plan"] * 1e3, "ms"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "ops_failed_frac": (failed_frac, "frac"),
    }
    for layer in LAYERS:
        if layer not in ("scenarios", "plan"):
            values[f"{layer}.self_us"] = (self_s[layer] / dgrams * 1e6, "us/dgram")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


class DeliveryCounter:
    """Counts delivered application datagrams, once per flow.

    Hooks the receivers' ``close`` (one call per flow, never per packet),
    so it stays on in the timed passes.  A UDP flow contributes its
    unique delivered datagrams; a TCP flow its in-order data segments
    (in-order bytes over the MSS every workload segment carries).
    """

    TCP_MSS = 1460

    def __init__(self) -> None:
        self.udp = 0
        self.tcp_segments = 0
        self._patches = _Patches()

    @property
    def total(self) -> int:
        return self.udp + self.tcp_segments

    def install(self) -> None:
        udp_close = UdpReceiver.__dict__["close"]
        tcp_close = TcpReceiver.__dict__["close"]

        def close_udp(receiver: UdpReceiver) -> None:
            self.udp += receiver.received_unique
            udp_close(receiver)

        def close_tcp(receiver: TcpReceiver) -> None:
            self.tcp_segments += receiver.bytes_in_order // self.TCP_MSS
            tcp_close(receiver)

        self._patches.set(UdpReceiver, "close", close_udp)
        self._patches.set(TcpReceiver, "close", close_tcp)

    def uninstall(self) -> None:
        self._patches.undo()


class BuildTimer:
    """Times every testbed build the cells make (the set-up share)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.builds = 0
        self._patches = _Patches()

    def install(self) -> None:
        for name in ("build_scenario", "build_ctrl_testbed"):
            self._patches.set(tasks, name, self._timed(getattr(tasks, name)))

    def uninstall(self) -> None:
        self._patches.undo()

    def _timed(self, fn: Callable) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def build(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += clock() - start
                self.builds += 1

        return build
