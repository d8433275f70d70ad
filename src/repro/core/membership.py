"""The vote loop both trusted voters run, with bundle membership.

:class:`QuorumVoter` is the one compare implementation shared by the
data-plane voter (:class:`~repro.core.compare.CompareCore`, packet
copies) and the control-plane voter (:class:`~repro.ctrl.compare.
ControlCompare`, replica flow-mods).  It holds the
:class:`~repro.core.votes.VoteBook` and the loop around each
``observe``, the liveness and divergence bookkeeping, the
released-entry finalise, the expiry sweep, :meth:`flush`, and the
quarantine / probation / re-admission state machine with its dynamic
quorum.

A subclass computes the vote key, calls :meth:`_vote` once per copy and
supplies what differs between the planes:

* ``_voted(outcome, branch, payload)`` — per-copy side effects between
  the vote and the dispatch (traces, DoS strikes);
* ``_do_release(entry, now, branch=None)`` — forward an entry's winning
  copy (``branch`` is None when a quorum shrink completed the vote);
* ``_finalise(entry)`` — account for an entry leaving the book: released
  entries go through :meth:`_expire_released`, voided ones are counted
  the subclass's own way;
* ``_raise_divergence_alarm(branch, count)`` — the latched alarm, whose
  payload differs per plane.

``trace_prefix`` picks the trace-topic namespace (``compare.*`` or
``ctrl.*``); alarm kinds are shared.  ``add_membership_listener(fn)``
calls ``fn(event, branch, now)`` on each ``"quarantine"`` /
``"readmit"`` transition (the adversary strategy library keys off it).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence

from repro.core.alarms import (
    ALARM_BRANCH_QUARANTINED,
    ALARM_BRANCH_READMITTED,
    ALARM_ROUTER_UNAVAILABLE,
    AlarmSink,
)
from repro.core.votes import VoteBook, VoteEntry
from repro.sim import PeriodicTask, Simulator, TraceBus

__all__ = ["QuorumVoter"]


class QuorumVoter:
    """Majority vote over branch copies, with self-healing membership.

    ``config`` provides ``k``, ``effective_quorum()``, ``validate()``,
    ``miss_threshold``, ``divergence_threshold``,
    ``probation_clean_target`` and ``min_active_branches``; ``stats``
    provides the counters the loop keeps (``branch_duplicates``,
    ``late_copies``, ``quarantined_copies``, ``released``,
    ``expired_released``, ``quarantines``, ``readmissions``,
    ``probation_resets``).
    """

    #: trace-topic namespace for voter events
    trace_prefix = "compare"

    def __init__(
        self,
        sim: Simulator,
        config,
        name: str,
        alarm_sink: Optional[AlarmSink],
        trace_bus: Optional[TraceBus],
        branch_ids: Optional[Sequence[int]],
        timeout: float,
        stats,
    ) -> None:
        config.validate()
        self.sim = sim
        self.config = config
        self.name = name
        self.alarms = alarm_sink or AlarmSink(trace_bus)
        self.trace_bus = trace_bus
        self.branch_ids = (
            list(branch_ids) if branch_ids is not None else list(range(config.k))
        )
        self.book = VoteBook(config.effective_quorum(), timeout)
        self.stats = stats
        # liveness bookkeeping
        self._miss_counts: Dict[int, int] = {b: 0 for b in self.branch_ids}
        self._unavailable: Dict[int, bool] = {b: False for b in self.branch_ids}
        # Time of each branch's last clean (counted, non-duplicate) vote:
        # entries older than this must not count as misses — they date
        # from before the branch recovered (stale-count guard).
        self._last_clean_vote: Dict[int, float] = {}
        # minority-divergence bookkeeping: how often each branch's bytes
        # expired unconfirmed, and whether the alarm already latched
        self._divergence_counts: Dict[int, int] = {b: 0 for b in self.branch_ids}
        self._divergence_alarmed: Dict[int, bool] = {}
        # branch -> quarantined-at time, and the running count of
        # consecutive clean probation copies
        self._quarantined: Dict[int, float] = {}
        self._probation_clean: Dict[int, int] = {}
        # observers of membership transitions, called with
        # ("quarantine" | "readmit", branch, now)
        self._membership_listeners: List[Callable[[str, int, float], None]] = []
        self._sweeper = PeriodicTask(sim, timeout, self._sweep)

    # ------------------------------------------------------------------
    # the vote loop
    # ------------------------------------------------------------------
    def _vote(
        self,
        key: Hashable,
        branch: int,
        now: float,
        payload: object,
        claim: Optional[int] = None,
    ) -> None:
        """Count one copy from ``branch`` toward the vote on ``key``.

        A quarantined branch's copy is recorded on probation: it earns
        re-admission credit when it matches a released entry and never
        counts toward the quorum.
        """
        if not self._sweeper.running:
            self._sweeper.start(self.book.timeout)
        outcome = self.book.observe(
            key, branch, now, payload, claim=claim,
            countable=branch not in self._quarantined,
        )
        if outcome.evicted_stale is not None:
            self._finalise(outcome.evicted_stale)
        if outcome.is_branch_duplicate:
            self.stats.branch_duplicates += 1
        elif outcome.countable:
            # First clean vote after an outage heals the liveness
            # bookkeeping right here, not at entry-finalise time:
            # otherwise outage-era entries expiring after the branch
            # recovered would re-alarm a healed router.
            self._last_clean_vote[branch] = now
            if self._miss_counts.get(branch):
                self._miss_counts[branch] = 0
            if self._unavailable.get(branch):
                self._unavailable[branch] = False
        self._voted(outcome, branch, payload)
        if not outcome.countable:
            self.stats.quarantined_copies += 1
            if outcome.entry.released and not outcome.is_branch_duplicate:
                # The copy matches what the active majority already
                # released: a clean duplicate, probation's currency.
                self._note_probation_clean(branch)
        elif outcome.late_copy:
            self.stats.late_copies += 1
        elif outcome.newly_released:
            self._do_release(outcome.entry, now, branch)

    # ------------------------------------------------------------------
    # expiry
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        for entry in self.book.pop_expired(self.sim.now):
            self._finalise(entry)
        if not len(self.book):
            self._sweeper.stop()

    def flush(self) -> None:
        """Finalise everything still buffered (end-of-run accounting)."""
        for entry in self.book.entries():
            self._finalise(entry)
        self.book.clear()
        self._sweeper.stop()

    def _expire_released(self, entry: VoteEntry) -> None:
        """A released entry left the book: settle each branch's liveness."""
        self.stats.expired_released += 1
        for missing in entry.missing_branches(self.branch_ids):
            if missing in self._quarantined or missing in entry.probation_counts:
                # Quarantined branches are expected to be absent from
                # the count; a probation copy is not "missing" either.
                continue
            self._note_missing(missing, entry.first_seen)
        for present in entry.branches():
            self._miss_counts[present] = 0
            if self._unavailable.get(present):
                self._unavailable[present] = False

    # ------------------------------------------------------------------
    # failure signatures
    # ------------------------------------------------------------------
    def _note_missing(self, branch: int, first_seen: float) -> None:
        if first_seen < self._last_clean_vote.get(branch, -1.0):
            # The entry predates the branch's recovery; counting it
            # would re-alarm a healed router on stale history.
            return
        count = self._miss_counts.get(branch, 0) + 1
        self._miss_counts[branch] = count
        if count >= self.config.miss_threshold and not self._unavailable.get(branch):
            self._unavailable[branch] = True
            self.alarms.raise_alarm(
                self.sim.now,
                ALARM_ROUTER_UNAVAILABLE,
                self.name,
                branch=branch,
                consecutive_misses=count,
            )

    def _note_divergence(self, branch: int) -> None:
        """``branch`` voted for bytes that expired without any active
        majority confirming them.  The count is cumulative and the alarm
        latches: it surfaces a silent colluding minority (at k=5, two
        branches delivering identical altered copies never trip the
        single-source alarm, and intermittent divergence resets every
        consecutive miss counter) without changing the vote itself.
        """
        count = self._divergence_counts.get(branch, 0) + 1
        self._divergence_counts[branch] = count
        if (
            count >= self.config.divergence_threshold
            and not self._divergence_alarmed.get(branch)
        ):
            self._divergence_alarmed[branch] = True
            self._raise_divergence_alarm(branch, count)

    # ------------------------------------------------------------------
    # membership: quarantine, probation, re-admission
    # ------------------------------------------------------------------
    def add_membership_listener(self, fn: Callable[[str, int, float], None]) -> None:
        """Observe quarantine / re-admission transitions."""
        self._membership_listeners.append(fn)

    def remove_membership_listener(self, fn: Callable[[str, int, float], None]) -> None:
        if fn in self._membership_listeners:
            self._membership_listeners.remove(fn)

    def _notify_membership(self, event: str, branch: int, now: float) -> None:
        for fn in list(self._membership_listeners):
            fn(event, branch, now)

    def active_branches(self) -> List[int]:
        """Branches currently counted toward the quorum."""
        return [b for b in self.branch_ids if b not in self._quarantined]

    def is_quarantined(self, branch: int) -> bool:
        return branch in self._quarantined

    def quarantined_branches(self) -> List[int]:
        return sorted(self._quarantined)

    def quarantine_branch(self, branch: int, reason: str = "operator") -> bool:
        """Take ``branch`` out of the vote (Section V's "take the faulty
        router out of service", automated).

        Its copies stop counting toward the quorum and are tracked on
        probation instead; the quorum is recomputed over the surviving
        active branches, so a k=3 bundle degrades to a 2-of-2 vote —
        forwarding continues but nothing is masked any more, which the
        alarm records as ``masking_margin``.  After
        ``probation_clean_target`` consecutive clean duplicates the
        branch is re-admitted automatically.  Refused (returns False)
        when it would leave fewer than ``min_active_branches`` active.
        """
        if branch not in self.branch_ids or branch in self._quarantined:
            return False
        if len(self.active_branches()) - 1 < self.config.min_active_branches:
            self._trace(
                f"{self.trace_prefix}.quarantine_refused",
                branch=branch,
                active=len(self.active_branches()),
            )
            return False
        now = self.sim.now
        self._quarantined[branch] = now
        self._probation_clean[branch] = 0
        self.stats.quarantines += 1
        self._apply_dynamic_quorum()
        active = len(self.active_branches())
        self.alarms.raise_alarm(
            now,
            ALARM_BRANCH_QUARANTINED,
            self.name,
            branch=branch,
            reason=reason,
            active_branches=active,
            quorum=self.book.quorum,
            masking_margin=active - self.book.quorum,
        )
        self._trace(
            f"{self.trace_prefix}.quarantine",
            branch=branch,
            reason=reason,
            active=active,
            quorum=self.book.quorum,
        )
        self._notify_membership("quarantine", branch, now)
        return True

    def readmit_branch(self, branch: int, reason: str = "probation_complete") -> bool:
        """Return a quarantined branch to the vote (probation served).

        The branch starts over on both failure signatures: its miss count
        and its divergence history (which likely drove the quarantine)
        reset, so a relapse re-alarms from scratch.
        """
        since = self._quarantined.pop(branch, None)
        if since is None:
            return False
        clean = self._probation_clean.pop(branch, 0)
        now = self.sim.now
        self._miss_counts[branch] = 0
        self._unavailable[branch] = False
        self._last_clean_vote[branch] = now
        self.stats.readmissions += 1
        self._apply_dynamic_quorum()
        self.alarms.raise_alarm(
            now,
            ALARM_BRANCH_READMITTED,
            self.name,
            branch=branch,
            reason=reason,
            clean_copies=clean,
            quarantined_for=now - since,
            active_branches=len(self.active_branches()),
            quorum=self.book.quorum,
        )
        self._trace(
            f"{self.trace_prefix}.readmit",
            branch=branch,
            clean=clean,
            quorum=self.book.quorum,
        )
        self._divergence_counts[branch] = 0
        self._divergence_alarmed.pop(branch, None)
        self._notify_membership("readmit", branch, now)
        return True

    def _apply_dynamic_quorum(self) -> None:
        """Recompute the vote threshold over the active bundle.

        The configured quorum applies to the full bundle; while branches
        are quarantined it is capped at a strict majority of the active
        set so forwarding survives the shrink.  A shrink can complete
        votes that were already pending.
        """
        quorum = self.config.effective_quorum()
        if self._quarantined:
            quorum = min(quorum, len(self.active_branches()) // 2 + 1)
        quorum = max(1, quorum)
        if quorum == self.book.quorum:
            return
        shrank = quorum < self.book.quorum
        self.book.quorum = quorum
        if shrank:
            now = self.sim.now
            for entry in self.book.pending():
                if entry.distinct_branches >= quorum:
                    entry.released = True
                    entry.released_at = now
                    self._do_release(entry, now)

    def _note_probation_clean(self, branch: int) -> None:
        if branch not in self._quarantined:
            return
        count = self._probation_clean.get(branch, 0) + 1
        self._probation_clean[branch] = count
        if count >= self.config.probation_clean_target:
            self.readmit_branch(branch)

    def _reset_probation(self, branch: int) -> None:
        if branch not in self._quarantined:
            return
        if self._probation_clean.get(branch):
            self._probation_clean[branch] = 0
            self.stats.probation_resets += 1
            self._trace(f"{self.trace_prefix}.probation_reset", branch=branch)

    def _trace(self, topic: str, **data: object) -> None:
        if self.trace_bus is not None:
            self.trace_bus.emit(self.sim.now, topic, self.name, **data)
