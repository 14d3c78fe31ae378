"""The Queue Manager (QM): reliable queue storage with working sets.

Section 5.1 / Figure 6 of the paper: the QM implements the StreamIt parallel
queue as a memory region divided into sub-regions ("working sets") so that
per-item pushes and pops touch only *local* head/tail pointers; the shared
pointers that hand working sets between producer and consumer are
ECC-protected and accessed only at working-set granularity.  Table 3 charges
10 ECC set/check operations per full ``QM-get-new-workset`` handoff; a
lightweight shared-tail *refresh* at a frame boundary (publishing a partial
working set so the consumer can see the completed frame) costs one ECC set
plus one check.

We model one :class:`GuardedQueue` per graph edge.  The producer fills a
local working set and publishes it when full; the Header Inserter also
triggers a publish at every frame boundary, which — together with a queue
capacity of at least two frames — guarantees deadlock-free progress (see
DESIGN.md).  Consumers block (``None``) when nothing is published.

Data units are the packed integers of :mod:`repro.core.header`: regular
items and ECC-protected frame headers share the queue, separated by the
header bit exactly as in the paper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.header import DataUnit, is_header_unit
from repro.core.stats import CommGuardStats
from repro.observability.events import QueueHighWater
from repro.words import WORD_MASK

#: ECC set/check operations charged per full working-set handoff (Table 3).
ECC_OPS_PER_WORKSET_HANDOFF = 10
#: ECC operations charged per frame-boundary shared-pointer refresh.
ECC_OPS_PER_BOUNDARY_REFRESH = 2

#: Occupancy/capacity fractions at which a ``QueueHighWater`` trace event
#: fires (once per watermark per queue, lowest first).
HIGH_WATER_MARKS = (0.5, 0.75, 0.9)


@dataclass(frozen=True, slots=True)
class QueueGeometry:
    """Sizing of one guarded queue."""

    workset_units: int
    capacity_units: int


def plan_geometry(
    push_rate: int,
    pop_rate: int,
    items_per_frame: int,
    workset_units: int = 256,
    min_capacity: int = 64,
) -> QueueGeometry:
    """Choose a queue geometry for an edge.

    Capacity covers two full frames (plus headers and PPU-bounded overshoot
    slack) so a producer can always finish its current frame computation
    without waiting on its consumer — the progress invariant that, together
    with frame-boundary publishing, makes CommGuard runs deadlock-free.
    """
    if push_rate < 1 or pop_rate < 1 or items_per_frame < 1:
        raise ValueError("edge rates and frame size must be positive")
    capacity = max(
        2 * items_per_frame + 2 * max(push_rate, pop_rate) + 8, min_capacity
    )
    return QueueGeometry(workset_units=max(1, workset_units), capacity_units=capacity)


#: Consumed-prefix length beyond which the published list is compacted
#: (mirrors :class:`repro.machine.queues.ReliableQueue`'s lazy compaction).
_COMPACT_THRESHOLD = 4096


class GuardedQueue:
    """One edge's QM-managed storage (items + headers, working-set handoff).

    Published units live in a list with a lazy read index (amortized O(1)
    pops, O(1) bulk slices).  Header positions are tracked as absolute
    ordinals in a side deque, so "how many plain items precede the next
    header" — the question both the batched pop path and the quiet-span
    fast path ask — is answered in O(1) instead of scanning.
    """

    def __init__(self, qid: int, geometry: QueueGeometry) -> None:
        self.qid = qid
        self.geometry = geometry
        self._published: list[DataUnit] = []
        self._read = 0
        self._producer_local: list[DataUnit] = []
        #: Indices of header units within ``_producer_local``.
        self._local_headers: list[int] = []
        #: Absolute ordinals (units ever published before them) of the
        #: published-but-unpopped header units, in queue order.
        self._header_offsets: deque[int] = deque()
        self._published_total = 0  # units ever published
        self._popped_total = 0  # units ever popped
        self._flushed = False
        #: High-water mark of total buffered units (Section 5.1 sizing aid).
        self.peak_units = 0
        #: Optional structured-event sink (set by the system builder).
        self.tracer = None
        #: Optional :class:`repro.machine.scheduler.WakeHub`, installed by
        #: the event scheduler for the duration of a run.
        self.wake_hub = None
        #: Optional :class:`repro.observability.profile.SimProfiler` (set
        #: by the system builder).  Occupancy — total buffered units,
        #: local and published — is sampled after every successful
        #: push/pop, the scheduler-invariant mutation points.
        self.profiler = None
        self._watermarks = [
            (mark, int(mark * geometry.capacity_units))
            for mark in HIGH_WATER_MARKS
        ]

    # -- producer side ------------------------------------------------------

    def push_unit(self, unit: DataUnit, stats: CommGuardStats) -> bool:
        """Append one data unit; ``False`` when blocked (queue at capacity)."""
        if self.total_units() >= self.geometry.capacity_units:
            return False
        self._producer_local.append(unit)
        total = self.total_units()
        if total > self.peak_units:
            self.peak_units = total
            if self.tracer is not None:
                while self._watermarks and total >= self._watermarks[0][1]:
                    mark, _threshold = self._watermarks.pop(0)
                    self.tracer.emit(
                        QueueHighWater(
                            qid=self.qid,
                            units=total,
                            capacity=self.geometry.capacity_units,
                            watermark=mark,
                        )
                    )
        stats.qm_push_local += 1
        if is_header_unit(unit):
            stats.header_stores += 1
            self._local_headers.append(len(self._producer_local) - 1)
        if len(self._producer_local) >= self.geometry.workset_units:
            self._publish(stats, full_handoff=True)
        if self.profiler is not None:
            self.profiler.queue_sample(self.qid, self.total_units())
        return True

    def push_items(self, words: list[int], start: int, stats: CommGuardStats) -> int:
        """Bulk fast path: append as many of ``words[start:]`` as capacity
        allows, as plain item units, publishing full working sets along the
        way.  Returns the number of words consumed.

        Observably identical to the equivalent :meth:`push_unit` sequence
        (same sub-operation charges, same publish points, same peak) —
        except for the per-crossing ``QueueHighWater`` payloads and the
        per-operation occupancy samples, which is why the bulk path
        declines whenever a tracer or profiler is attached.
        """
        if self.tracer is not None or self.profiler is not None:
            return 0
        local = self._producer_local
        total = self.visible_units() + len(local)
        take = min(self.geometry.capacity_units - total, len(words) - start)
        if take <= 0:
            return 0
        workset = self.geometry.workset_units
        wm = WORD_MASK
        i = start
        end = start + take
        while i < end:
            chunk = min(workset - len(local), end - i)
            local.extend(word & wm for word in words[i : i + chunk])
            i += chunk
            if len(local) >= workset:
                self._publish(stats, full_handoff=True)
        stats.qm_push_local += take
        total += take
        if total > self.peak_units:
            self.peak_units = total
        return take

    def flush(self, stats: CommGuardStats) -> bool:
        """Publish a partially-filled working set.

        Called by the HI at every frame boundary and at end of computation;
        a shared-tail refresh, charged lighter than a full handoff.  Always
        succeeds (capacity was already charged at push time).
        """
        if self._producer_local:
            self._publish(stats, full_handoff=False)
        self._flushed = True
        return True

    def _publish(self, stats: CommGuardStats, full_handoff: bool) -> None:
        if self._local_headers:
            base = self._published_total
            self._header_offsets.extend(
                base + index for index in self._local_headers
            )
            self._local_headers.clear()
        self._published_total += len(self._producer_local)
        self._published.extend(self._producer_local)
        self._producer_local.clear()
        stats.qm_get_new_workset += 1
        stats.ecc_ops += (
            ECC_OPS_PER_WORKSET_HANDOFF
            if full_handoff
            else ECC_OPS_PER_BOUNDARY_REFRESH
        )
        if self.wake_hub is not None:
            self.wake_hub.on_push(self.qid)

    # -- consumer side ------------------------------------------------------

    def pop_unit(self, stats: CommGuardStats) -> DataUnit | None:
        """Remove and return the next data unit; ``None`` when blocked."""
        published = self._published
        read = self._read
        if read >= len(published):
            return None
        unit = published[read]
        self._read = read + 1
        self._popped_total += 1
        if self._read > _COMPACT_THRESHOLD:  # compact lazily
            del published[: self._read]
            self._read = 0
        stats.qm_pop_local += 1
        if is_header_unit(unit):
            stats.header_loads += 1
            self._header_offsets.popleft()
        if self.wake_hub is not None:
            self.wake_hub.on_pop(self.qid)
        if self.profiler is not None:
            self.profiler.queue_sample(self.qid, self.total_units())
        return unit

    def pop_plain_items(self, limit: int, stats: CommGuardStats) -> list[DataUnit]:
        """Bulk fast path: pop up to *limit* consecutive published units,
        stopping short of the first header (which stays queued, uncharged).

        Observably identical to the equivalent :meth:`pop_unit` sequence.
        """
        if self.profiler is not None:
            return []  # per-unit path samples occupancy per operation
        take = min(limit, self.plain_visible_units())
        if take <= 0:
            return []
        published = self._published
        read = self._read
        units = published[read : read + take]
        self._read = read + take
        self._popped_total += take
        if self._read > _COMPACT_THRESHOLD:  # compact lazily
            del published[: self._read]
            self._read = 0
        stats.qm_pop_local += take
        if self.wake_hub is not None:
            self.wake_hub.on_pop(self.qid)
        return units

    # -- introspection --------------------------------------------------------

    def visible_units(self) -> int:
        """Units the consumer could pop right now."""
        return len(self._published) - self._read

    def plain_visible_units(self) -> int:
        """Consecutive plain (non-header) units at the consumer's front.

        O(1): the distance from the pop cursor to the next published
        header's ordinal, or the whole visible run when no header is
        queued.  This is the quiet-span fast path's pop-eligibility check.
        """
        visible = len(self._published) - self._read
        if self._header_offsets:
            return min(visible, self._header_offsets[0] - self._popped_total)
        return visible

    def front_header(self) -> DataUnit | None:
        """The header unit at the consumer's front, or ``None`` when the
        front is a plain unit or nothing is published.  O(1)."""
        offsets = self._header_offsets
        if offsets and offsets[0] == self._popped_total:
            return self._published[self._read]
        return None

    def plain_units_behind_front_header(self) -> int:
        """Consecutive plain units published right behind the front header
        (which :meth:`front_header` must have found).  O(1), like
        :meth:`plain_visible_units` one unit further on."""
        visible = len(self._published) - self._read - 1
        offsets = self._header_offsets
        if len(offsets) > 1:
            return min(visible, offsets[1] - self._popped_total - 1)
        return visible

    def unpublished_units(self) -> int:
        """Units sitting in the producer's local working set."""
        return len(self._producer_local)

    def total_units(self) -> int:
        return self.visible_units() + self.unpublished_units()

    @property
    def flushed(self) -> bool:
        return self._flushed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GuardedQueue(qid={self.qid}, visible={self.visible_units()}, "
            f"unpublished={self.unpublished_units()})"
        )


class QueueManager:
    """Per-thread facade over the thread's guarded queues.

    In hardware the QM is the module that executes push/pop/discard requests
    against the memory subsystem (Section 4.3); here it binds the thread's
    stats object to the shared :class:`GuardedQueue` storage so that
    suboperations are charged to the acting thread.
    """

    def __init__(self, stats: CommGuardStats) -> None:
        self._stats = stats
        self._outgoing: dict[int, GuardedQueue] = {}
        self._incoming: dict[int, GuardedQueue] = {}

    def attach_outgoing(self, queue: GuardedQueue) -> None:
        self._outgoing[queue.qid] = queue

    def attach_incoming(self, queue: GuardedQueue) -> None:
        self._incoming[queue.qid] = queue

    @property
    def outgoing(self) -> dict[int, GuardedQueue]:
        return self._outgoing

    @property
    def incoming(self) -> dict[int, GuardedQueue]:
        return self._incoming

    def push(self, qid: int, unit: DataUnit) -> bool:
        return self._outgoing[qid].push_unit(unit, self._stats)

    def push_items(self, qid: int, words: list[int], start: int) -> int:
        return self._outgoing[qid].push_items(words, start, self._stats)

    def pop(self, qid: int) -> DataUnit | None:
        return self._incoming[qid].pop_unit(self._stats)

    def pop_plain_items(self, qid: int, limit: int) -> list[DataUnit]:
        return self._incoming[qid].pop_plain_items(limit, self._stats)

    def flush(self, qid: int) -> bool:
        return self._outgoing[qid].flush(self._stats)
