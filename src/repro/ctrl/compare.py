"""The trusted control-plane voter (P4BFT-style quorum over flow-mods).

:class:`ControlCompare` is to the control plane what
:class:`~repro.core.compare.CompareCore` is to the data plane: a trusted
element that receives every replica's outbound control message, votes on
the canonical byte encoding (:mod:`repro.ctrl.digest`), and releases a
message to the switch only once a strict majority of replicas produced a
byte-identical copy.  It reuses the same machinery end to end:

* :class:`~repro.core.membership.QuorumVoter`, the vote loop the
  data-plane compare runs: :class:`~repro.core.votes.VoteBook` quorum
  accounting (the vote key is ``(datapath_id, digest(message))`` and the
  entry's payload slot holds the message object itself), liveness and
  divergence bookkeeping, quarantine, dynamic quorum and probation
  re-admission;
* the shared alarm kinds, so the existing
  :class:`~repro.chaos.quarantine.QuarantineController` closes the loop
  unchanged (pointed at this voter instead of a compare core).

Two failure signatures are distinguished:

* a replica that *stops emitting* (crash) goes missing from released
  decisions; ``miss_threshold`` consecutive misses raise
  ``ALARM_ROUTER_UNAVAILABLE`` — same rule, same alarm as a silent
  router;
* a replica that *lies* (compromise) emits bytes no majority ever
  confirms; its entries expire unreleased, and after
  ``divergence_threshold`` strikes the voter raises
  ``ALARM_MINORITY_DIVERGENCE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from repro.core.alarms import ALARM_MINORITY_DIVERGENCE, AlarmSink
from repro.core.membership import QuorumVoter
from repro.core.votes import VoteEntry, VoteOutcome
from repro.ctrl.digest import digest
from repro.obs.metrics import active_registry
from repro.sim import Simulator, TraceBus

__all__ = ["ControlCompareConfig", "CtrlStats", "ControlCompare"]


@dataclass
class ControlCompareConfig:
    """Tunable parameters of the control-plane voter."""

    k: int = 3
    quorum: Optional[int] = None  # default: floor(k/2) + 1 (strict majority)
    #: how long a decision waits for its majority before it is voided;
    #: replicas answer the same fanned-out event synchronously (plus
    #: their service time), so this can be much shorter than a data-plane
    #: buffer timeout
    vote_timeout: float = 2e-3
    #: consecutive released decisions a replica may miss before the
    #: unavailable alarm fires (the crash signature)
    miss_threshold: int = 4
    #: unconfirmed divergent decisions before the divergence alarm fires
    #: (the lying signature); 1 = zero tolerance
    divergence_threshold: int = 1
    #: consecutive clean probation copies before re-admission
    probation_clean_target: int = 6
    #: the control plane may degrade all the way to one replica (an
    #: unreplicated controller is today's baseline, not an outage)
    min_active_branches: int = 1

    def effective_quorum(self) -> int:
        if self.quorum is not None:
            return self.quorum
        return self.k // 2 + 1

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        quorum = self.effective_quorum()
        if not 1 <= quorum <= self.k:
            raise ValueError(f"quorum {quorum} out of range for k={self.k}")
        if self.vote_timeout <= 0:
            raise ValueError("vote_timeout must be positive")
        if self.miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        if self.divergence_threshold < 1:
            raise ValueError("divergence_threshold must be >= 1")
        if self.probation_clean_target < 1:
            raise ValueError("probation_clean_target must be >= 1")
        if self.min_active_branches < 1:
            raise ValueError("min_active_branches must be >= 1")


@dataclass
class CtrlStats:
    """Counters exposed by a control-plane voter."""

    submissions: int = 0
    released: int = 0
    late_copies: int = 0
    branch_duplicates: int = 0
    #: decisions voided: expired without a majority
    blocked_no_quorum: int = 0
    #: decisions voided that only ever had probation votes
    blocked_quarantined: int = 0
    expired_released: int = 0
    quarantined_copies: int = 0
    #: released decisions whose digest a compromised replica also emitted
    #: — the acceptance metric; must stay 0 under a minority of liars
    malicious_released: int = 0
    quarantines: int = 0
    readmissions: int = 0
    probation_resets: int = 0

    @property
    def blocked(self) -> int:
        return self.blocked_no_quorum + self.blocked_quarantined

    def as_dict(self) -> dict:
        data = dict(self.__dict__)
        data["blocked"] = self.blocked
        return data


class ControlCompare(QuorumVoter):
    """Majority vote over replica control messages, per switch.

    The shared vote loop (:class:`~repro.core.membership.QuorumVoter`)
    keyed by ``(datapath_id, digest(message))``, releasing through a
    per-switch callback; this class adds the taint and entry-trace
    bookkeeping and the blocked-decision accounting.
    """

    trace_prefix = "ctrl"

    def __init__(
        self,
        sim: Simulator,
        config: ControlCompareConfig,
        name: str = "ctrl_compare",
        alarm_sink: Optional[AlarmSink] = None,
        trace_bus: Optional[TraceBus] = None,
        replica_ids: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(
            sim, config, name, alarm_sink, trace_bus, replica_ids,
            config.vote_timeout, CtrlStats(),
        )
        #: datapath_id -> release callable (delivers one winning message)
        self._releases: Dict[int, Callable[[object], None]] = {}
        # vote keys a compromised replica emitted (simulation-side truth,
        # used only to score the malicious_released acceptance metric)
        self._tainted: Set[Tuple[int, bytes]] = set()
        # vote key -> trace id of the data-plane packet that caused the
        # decision (first submission wins); telemetry only — lets
        # `repro obs trace` stitch control-plane spans onto a packet's
        # data-plane trajectory
        self._entry_trace: Dict[Tuple[int, bytes], int] = {}
        registry = active_registry()
        if registry.enabled:
            self._c_votes = registry.counter(
                "ctrl_votes_total",
                "control-message copies voted on by the control-plane voter",
                labelnames=("compare",),
            ).labels(name)
            self._c_blocked = registry.counter(
                "ctrl_flowmods_blocked_total",
                "control messages voided without reaching a majority",
                labelnames=("compare", "reason"),
            )
            self._h_vote_latency = registry.histogram(
                "ctrl_vote_latency_seconds",
                "time from a decision's first copy arriving to its release",
                labelnames=("compare",),
            ).labels(name)
        else:
            self._c_votes = None
            self._c_blocked = None
            self._h_vote_latency = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_switch(
        self, datapath_id: int, release: Callable[[object], None]
    ) -> None:
        """Attach the release path for one switch's control channel."""
        self._releases[datapath_id] = release

    # ------------------------------------------------------------------
    # submission path (replica -> voter)
    # ------------------------------------------------------------------
    def submit(
        self,
        replica: int,
        datapath_id: int,
        message: object,
        tainted: bool = False,
        trace: Optional[int] = None,
    ) -> None:
        """Accept one outbound control message from ``replica``.

        ``tainted`` marks copies a compromise hook modified; it never
        influences voting (the voter cannot know), only the
        ``malicious_released`` accounting the acceptance tests read.
        ``trace`` carries the trace id of the data-plane packet whose
        PacketIn caused this message (when that packet is marked); it is
        attached to the decision's span records and never affects voting.
        """
        self.stats.submissions += 1
        if self._c_votes is not None:
            self._c_votes.inc()
        key: Tuple[int, bytes] = (datapath_id, digest(message))
        if tainted:
            self._tainted.add(key)
        if trace is not None:
            self._entry_trace.setdefault(key, trace)
        self._vote(key, replica, self.sim.now, message)

    def _voted(self, outcome: VoteOutcome, replica: int, message: object) -> None:
        key = outcome.entry.key
        vote_data = dict(
            branch=replica,
            dpid=key[0],
            votes=outcome.entry.distinct_branches,
            kind=type(message).__name__,
            duplicate=outcome.is_branch_duplicate,
            late=outcome.late_copy,
            probation=not outcome.countable,
        )
        known_trace = self._entry_trace.get(key)
        if known_trace is not None:
            vote_data["trace"] = known_trace
        self._trace("ctrl.vote", **vote_data)

    def _do_release(
        self, entry: VoteEntry, now: float, branch: Optional[int] = None
    ) -> None:
        """Deliver an entry's winning message and settle probation."""
        self.stats.released += 1
        key = entry.key
        if key in self._tainted:
            # A majority confirmed bytes a compromised replica emitted:
            # either the lie found co-conspirators or it equalled the
            # honest output (not a lie at all); count it — the ctrlbft
            # acceptance gate requires this to stay 0.
            self.stats.malicious_released += 1
            self._trace("ctrl.malicious_release", dpid=key[0])
        if self._h_vote_latency is not None:
            self._h_vote_latency.observe(now - entry.first_seen)
        release_data = dict(
            dpid=key[0],
            votes=entry.distinct_branches,
            kind=type(entry.packet).__name__,
            latency=now - entry.first_seen,
        )
        release_trace = self._entry_trace.get(key)
        if release_trace is not None:
            release_data["trace"] = release_trace
        self._trace("ctrl.release", **release_data)
        release = self._releases.get(key[0])
        if release is not None:
            release(entry.packet)
        for waiting in list(entry.probation_counts):
            self._note_probation_clean(waiting)

    # ------------------------------------------------------------------
    # expiry path
    # ------------------------------------------------------------------
    def _finalise(self, entry: VoteEntry) -> None:
        """Account for a decision leaving the book (expiry/eviction)."""
        self._tainted.discard(entry.key)
        entry_trace = self._entry_trace.pop(entry.key, None)
        if entry.released:
            self._expire_released(entry)
            return
        # Voided: nobody assembled a majority for these bytes.
        if entry.branch_counts:
            self.stats.blocked_no_quorum += 1
            reason = "no_quorum"
        else:
            self.stats.blocked_quarantined += 1
            reason = "quarantined"
        if self._c_blocked is not None:
            self._c_blocked.labels(self.name, reason).inc()
        blocked_data = dict(
            dpid=entry.key[0],
            reason=reason,
            votes=entry.distinct_branches,
            kind=type(entry.packet).__name__,
        )
        if entry_trace is not None:
            blocked_data["trace"] = entry_trace
        self._trace("ctrl.blocked", **blocked_data)
        for waiting in list(entry.probation_counts):
            # Probation bytes no active majority confirmed: start over.
            self._reset_probation(waiting)
        # Every replica that voted for voided bytes diverged, including
        # one quarantined since it voted.
        for voter in entry.branches():
            self._note_divergence(voter)

    def _raise_divergence_alarm(self, replica: int, strikes: int) -> None:
        self.alarms.raise_alarm(
            self.sim.now,
            ALARM_MINORITY_DIVERGENCE,
            self.name,
            branch=replica,
            strikes=strikes,
        )

    def __repr__(self) -> str:
        return (
            f"ControlCompare({self.name}, k={self.config.k}, "
            f"quorum={self.config.effective_quorum()})"
        )
