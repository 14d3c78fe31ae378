"""Raw inter-thread queue backends (the non-CommGuard baselines).

Two backends mirror the paper's baseline configurations (Fig. 3):

* :class:`SoftwareQueue` — the StreamIt concurrent queue: a ring buffer
  whose head/tail pointers live in ordinary (unprotected) state.  An
  address-class error can flip a bit in a pointer; subsequent operations
  then read stale/garbage slots or get inconsistent full/empty views — the
  paper's queue-management-error (QME) class, which corrupted Fig. 3b.
* :class:`ReliableQueue` — an error-protected queue that always transfers
  the right *count* of items (pointers immune).  Values pushed into it may
  already be corrupt, and alignment errors pass straight through — which is
  why Fig. 3c still fails without CommGuard.

Both carry bare 32-bit words; headers exist only in the CommGuard path.
"""

from __future__ import annotations

import random

from repro.observability.events import QueueHighWater
from repro.words import WORD_MASK, truncate_words

#: Period of the free-running ring pointers: slot indices jump at this wrap
#: unless the capacity divides it, so a contiguous run of slots ends there
#: as well as at the end of the ring.
_WRAP = 1 << 32

#: Occupancy/capacity fractions at which a ``QueueHighWater`` trace event
#: fires (mirrors :data:`repro.core.queue_manager.HIGH_WATER_MARKS`).
HIGH_WATER_MARKS = (0.5, 0.75, 0.9)


class RawQueue:
    """Interface shared by the raw word queues."""

    #: Optional structured-event sink plus the owning edge's qid, both set
    #: by the system builder (``None`` keeps pushes allocation-free).
    tracer = None
    qid = -1
    #: Optional :class:`repro.machine.scheduler.WakeHub`, installed by the
    #: event scheduler for the duration of a run (``None`` otherwise).
    wake_hub = None
    #: Optional :class:`repro.observability.profile.SimProfiler`, set by
    #: the system builder.  Occupancy is sampled only after *successful*
    #: mutations (push/pop/corrupt) — the same points that notify the
    #: wake hub — because those are simulated events, while the number of
    #: blocked retries depends on how often the run loop re-steps a thread.
    profiler = None

    def push(self, word: int) -> bool:
        """Append a word; ``False`` when the queue appears full (block)."""
        raise NotImplementedError

    def pop(self) -> int | None:
        """Remove the next word; ``None`` when the queue appears empty."""
        raise NotImplementedError

    def push_many(self, words: list[int], start: int) -> int:
        """Append ``words[start:]`` without blocking; return how many fit.

        The default declines so subclasses without a bulk path fall back to
        per-word pushes.  Implementations must be observably identical to
        the equivalent sequence of :meth:`push` calls.
        """
        return 0

    def pop_many(self, limit: int) -> list[int]:
        """Remove up to *limit* words; empty list when nothing is poppable.

        Must be observably identical to the equivalent :meth:`pop` calls.
        """
        return []

    def occupancy(self) -> int:
        raise NotImplementedError

    def corrupt_pointer(self, rng: random.Random) -> None:
        """Flip a random bit in management state (no-op when protected)."""

    @property
    def peak_occupancy(self) -> int:
        return getattr(self, "_peak", 0)

    def _track_peak(self) -> None:
        occupancy = self.occupancy()
        if occupancy > getattr(self, "_peak", 0):
            self._peak = occupancy
            if self.tracer is not None:
                self._emit_high_water(occupancy)

    def _profile_sample(self) -> None:
        # Corrupted pointers can make occupancy() astronomical; samples
        # are capped at the physical buffer like the peak statistics.
        self.profiler.queue_sample(self.qid, min(self.occupancy(), self.capacity))

    def _emit_high_water(self, occupancy: int) -> None:
        capacity = self.capacity
        pending = getattr(self, "_watermarks", None)
        if pending is None:
            pending = [(m, int(m * capacity)) for m in HIGH_WATER_MARKS]
            self._watermarks = pending
        while pending and occupancy >= pending[0][1]:
            mark, _threshold = pending.pop(0)
            self.tracer.emit(
                QueueHighWater(
                    qid=self.qid, units=occupancy, capacity=capacity, watermark=mark
                )
            )


class ReliableQueue(RawQueue):
    """Bounded FIFO with fully-protected management state."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: list[int] = []
        self._read = 0

    def push(self, word: int) -> bool:
        if self.occupancy() >= self.capacity:
            return False
        self._items.append(word & WORD_MASK)
        self._track_peak()
        if self.wake_hub is not None:
            self.wake_hub.on_push(self.qid)
        if self.profiler is not None:
            self._profile_sample()
        return True

    def pop(self) -> int | None:
        if self._read >= len(self._items):
            return None
        word = self._items[self._read]
        self._read += 1
        if self._read > 4096:  # compact lazily
            del self._items[: self._read]
            self._read = 0
        if self.wake_hub is not None:
            self.wake_hub.on_pop(self.qid)
        if self.profiler is not None:
            self._profile_sample()
        return word

    def push_many(self, words: list[int], start: int) -> int:
        if self.tracer is not None or self.profiler is not None:
            # High-water events carry the occupancy at each crossing, and
            # occupancy samples are per-operation; only the per-word path
            # reproduces those exactly.
            return 0
        room = self.capacity - self.occupancy()
        take = min(room, len(words) - start)
        if take <= 0:
            return 0
        self._items += truncate_words(words[start : start + take])
        if (occupancy := self.occupancy()) > getattr(self, "_peak", 0):
            self._peak = occupancy
        if self.wake_hub is not None:
            self.wake_hub.on_push(self.qid)
        return take

    def pop_many(self, limit: int) -> list[int]:
        if self.profiler is not None:
            return []  # per-word path samples occupancy per operation
        take = min(limit, self.occupancy())
        if take <= 0:
            return []
        read = self._read
        words = self._items[read : read + take]
        self._read = read + take
        if self._read > 4096:  # compact lazily
            del self._items[: self._read]
            self._read = 0
        if self.wake_hub is not None:
            self.wake_hub.on_pop(self.qid)
        return words

    def occupancy(self) -> int:
        return len(self._items) - self._read

    def corrupt_pointer(self, rng: random.Random) -> None:
        """Management state is ECC-protected: corruption has no effect."""


class SoftwareQueue(RawQueue):
    """StreamIt-style ring buffer with corruptible head/tail pointers.

    ``head`` and ``tail`` are free-running 32-bit counters; slot indices are
    taken modulo the buffer size (the PPU confines addressing, so corrupt
    pointers read garbage slots instead of faulting).  The occupancy view is
    ``(tail - head) mod 2**32`` capped at the buffer, so a single flipped
    pointer bit can make the queue look empty, look full, or replay stale
    slots — the paper's QME failure modes, including deadlock.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buffer = [0] * capacity
        self.head = 0  # next slot to pop (corruptible word)
        self.tail = 0  # next slot to push (corruptible word)

    def occupancy(self) -> int:
        return (self.tail - self.head) & WORD_MASK

    def push(self, word: int) -> bool:
        if self.occupancy() >= self.capacity:
            return False
        self._buffer[self.tail % self.capacity] = word & WORD_MASK
        self.tail = (self.tail + 1) & WORD_MASK
        # Corrupted pointers can make occupancy() astronomical; the peak is
        # capped at the physical buffer for the sizing statistics.
        if (occupancy := min(self.occupancy(), self.capacity)) > getattr(self, "_peak", 0):
            self._peak = occupancy
            if self.tracer is not None:
                self._emit_high_water(occupancy)
        if self.wake_hub is not None:
            self.wake_hub.on_push(self.qid)
        if self.profiler is not None:
            self._profile_sample()
        return True

    def pop(self) -> int | None:
        if self.occupancy() == 0:
            return None
        word = self._buffer[self.head % self.capacity]
        self.head = (self.head + 1) & WORD_MASK
        if self.wake_hub is not None:
            self.wake_hub.on_pop(self.qid)
        if self.profiler is not None:
            self._profile_sample()
        return word

    def push_many(self, words: list[int], start: int) -> int:
        """Copy contiguous runs of slots: a run ends at the end of the ring
        or at the 2**32 wrap of the tail, whichever comes first."""
        if self.tracer is not None or self.profiler is not None:
            return 0  # per-word path reproduces events and samples exactly
        room = self.capacity - self.occupancy()
        take = min(room, len(words) - start)
        if take <= 0:
            return 0
        buffer = self._buffer
        capacity = self.capacity
        tail = self.tail
        end = start + take
        while start < end:
            slot = tail % capacity
            run = min(end - start, capacity - slot, _WRAP - tail)
            buffer[slot : slot + run] = truncate_words(words[start : start + run])
            start += run
            tail = (tail + run) & WORD_MASK
        self.tail = tail
        if (occupancy := min(self.occupancy(), capacity)) > getattr(self, "_peak", 0):
            self._peak = occupancy
        if self.wake_hub is not None:
            self.wake_hub.on_push(self.qid)
        return take

    def pop_many(self, limit: int) -> list[int]:
        if self.profiler is not None:
            return []  # per-word path samples occupancy per operation
        # Corrupted pointers can make occupancy() astronomical; replaying
        # stale slots, round the ring more than once if need be, is exactly
        # what repeated pop() does.
        take = min(limit, self.occupancy())
        if take <= 0:
            return []
        buffer = self._buffer
        capacity = self.capacity
        head = self.head
        words: list[int] = []
        while take:
            slot = head % capacity
            run = min(take, capacity - slot, _WRAP - head)
            words += buffer[slot : slot + run]
            take -= run
            head = (head + run) & WORD_MASK
        self.head = head
        if self.wake_hub is not None:
            self.wake_hub.on_pop(self.qid)
        return words

    def corrupt_pointer(self, rng: random.Random) -> None:
        """Flip a random bit of head or tail (a QME-class error)."""
        bit = 1 << rng.randrange(32)
        if rng.random() < 0.5:
            self.head = (self.head ^ bit) & WORD_MASK
        else:
            self.tail = (self.tail ^ bit) & WORD_MASK
        if self.wake_hub is not None:
            self.wake_hub.on_corrupt(self.qid)
        if self.profiler is not None:
            self._profile_sample()
