"""Host-speed probe: a fixed workload, timed next to every measured cell.

The benchmark's host shares its cores with other machines' work, which
slows every piece of code on a core by up to half for minutes at a time.
A cell's time alone cannot tell that slowdown from a change to the
program, so the benchmark times this probe right before and right after
every cell and scales the cell's time by how slow the probe ran (see
``run.py`` and ``README.md``).

The probe is a miniature packet simulation written for the benchmark:
an event heap, packet objects that are copied and serialised, per-node
forwarding tables and a majority vote over three copies.  It exercises
the interpreter the way the simulator does, and on the host the
benchmark was defined on it tracks the simulator's slowdown more closely
than a tight compute loop or a memory-bound table walk does.  It never
imports the program, so no change to the program can speed it up.  It
runs in a helper process on the benchmark's own core, so it neither
shares the benchmark's heap nor counts towards its peak memory.

Run as a script it is the helper: each line read from standard input
runs the probe once and writes its host seconds as one line.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: nominal probe time: scaled times are host seconds on a host where the
#: probe takes this long (about what it takes on an idle core of the
#: 2-core Xeon VM the benchmark was defined on)
REFERENCE_S = 0.005
PACKETS = 200
PAYLOAD = bytes(range(256)) * 5


class _Packet:
    def __init__(self, src: int, dst: int, seq: int, payload: bytes) -> None:
        self.src, self.dst, self.seq, self.payload = src, dst, seq, payload
        self.meta: Dict[str, Any] = {}

    def copy(self) -> "_Packet":
        twin = _Packet(self.src, self.dst, self.seq, self.payload)
        twin.meta = dict(self.meta)
        return twin

    def to_bytes(self) -> bytes:
        return b"%d|%d|%d|" % (self.src, self.dst, self.seq) + self.payload


class _Sim:
    def __init__(self) -> None:
        self.queue: List[Tuple[float, int, Callable, tuple]] = []
        self.now = 0.0
        self.events = 0

    def at(self, delay: float, fn: Callable, *args: Any) -> None:
        self.events += 1
        heapq.heappush(self.queue, (self.now + delay, self.events, fn, args))

    def run(self) -> None:
        queue = self.queue
        while queue:
            self.now, _, fn, args = heapq.heappop(queue)
            fn(*args)


class _Node:
    """Forwards by (destination, in-port); the sink votes on 3 copies."""

    def __init__(self, name: int, sim: _Sim) -> None:
        self.name, self.sim = name, sim
        self.table: Dict[Tuple[int, Optional[int]], List[Tuple["_Node", float]]] = {}
        self.votes: Dict[int, List[bytes]] = {}
        self.released = 0

    def receive(self, packet: _Packet, port: Optional[int]) -> None:
        packet.meta["hops"] = packet.meta.get("hops", 0) + 1
        for nxt, delay in self.table.get((packet.dst, port), ()):
            self.sim.at(delay, nxt.receive, packet.copy(), self.name)

    def vote(self, packet: _Packet, port: Optional[int]) -> None:
        digest = hashlib.sha1(packet.to_bytes()).digest()
        copies = self.votes.setdefault(packet.seq, [])
        copies.append(digest)
        if len(copies) == 2 and copies[0] == copies[1]:
            self.released += 1


def _probe() -> int:
    sim = _Sim()
    nodes = [_Node(i, sim) for i in range(5)]
    nodes[0].table[(4, None)] = [(nodes[j], 1e-6 * j) for j in (1, 2, 3)]
    for j in (1, 2, 3):
        nodes[j].table[(4, 0)] = [(nodes[4], 2e-6)]
    nodes[4].receive = nodes[4].vote
    for seq in range(PACKETS):
        sim.at(seq * 1e-5, nodes[0].receive, _Packet(0, 4, seq, PAYLOAD), None)
    sim.run()
    return nodes[4].released


def _serve() -> None:
    clock = time.perf_counter
    for _ in sys.stdin:
        start = clock()
        _probe()
        sys.stdout.write(f"{clock() - start!r}\n")
        sys.stdout.flush()


def pin_to_one_core() -> None:
    """Keep this process, and every process it starts, on its current core."""
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    try:
        # field 39 of /proc/self/stat: the core this process last ran on
        stat = Path("/proc/self/stat").read_text()
        core = int(stat.rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        core = min(allowed)
    os.sched_setaffinity(0, {core if core in allowed else min(allowed)})


class HostProbe:
    """The helper process, started on entry and stopped on exit."""

    WARMUP = 3

    def __init__(self) -> None:
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "HostProbe":
        self._proc = subprocess.Popen(
            [sys.executable, "-I", str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            for _ in range(self.WARMUP):
                self.sample()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def sample(self) -> float:
        """Host seconds of one probe run, made now on this core."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host probe helper exited")
        return float(line)


if __name__ == "__main__":
    _serve()
