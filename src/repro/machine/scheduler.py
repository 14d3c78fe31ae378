"""The run loop: virtual round-robin sweeps, stepping only ready threads.

Each :class:`~repro.machine.thread.NodeThread` runs cooperatively until it
blocks on a queue operation.  Simulated progress is counted in *sweeps*:
one sweep is a round-robin pass over the live threads in ascending global
order (core by core, threads in build order), stepping each until it
blocks or finishes.  A sweep in which no thread's progress token moved is
*stuck*: every live thread spins (burning ``spin_instructions`` and
exposing queue state to spin-time errors), and ``timeout_sweeps``
consecutive stuck sweeps arm the QM timeout (Section 5.1), which
force-unblocks every live thread so runs always terminate.  ``sweeps``,
``forced_unblocks`` and the ``ForcedUnblock(thread, sweep)`` trace events
are results of a run, pinned by the golden run digests
(``tests/fixtures/golden_runs.json``).

:class:`EventScheduler` performs each sweep while stepping only the threads
that can progress.  A blocked retry has no side effects until the queue
state changes in the thread's favour, so stepping a thread no queue
mutation has touched since it blocked is a no-op and is skipped.  Queue
mutations notify the :class:`WakeHub`, which maps each edge to its producer
and consumer threads and marks exactly the endpoints a mutation could
unblock as ready.  Because a sweep visits threads in ascending order, a
change made while thread ``i`` is stepping reaches thread ``j`` within the
same sweep iff ``j > i``: the hub routes a wake to the current sweep's
ready set when the target sits after the stepping position, and to the
next sweep's otherwise.  The QM timeout is the case "ready set empty (or
unproductive) but threads alive".

Wake sources (installed on the queue backends as the ``wake_hub``
attribute for the duration of a run):

* a raw-queue ``push`` or a guarded-queue working-set publish makes data
  visible — wake the consumer;
* a raw- or guarded-queue ``pop`` frees capacity — wake the producer;
* a software-queue pointer corruption can flip full/empty views both ways
  — wake both endpoints;
* a QM timeout force-unblocks every live thread — wake all.

Wakes are idempotent booleans, so notifying once per batched queue
operation is equivalent to notifying per word.
"""

from __future__ import annotations

from repro.observability.events import ForcedUnblock


class WakeHub:
    """Ready-set bookkeeping shared by the scheduler and the queues.

    ``position`` is the index of the thread currently stepping (``-1``
    outside the step loop; the spin/timeout phase runs after the ready sets
    are swapped, so its wakes land in the next sweep).
    """

    __slots__ = ("producer_of", "consumer_of", "ready_now", "ready_next", "position")

    def __init__(self, n_threads: int) -> None:
        #: qid -> global index of the thread pushing into / popping from it.
        self.producer_of: dict[int, int] = {}
        self.consumer_of: dict[int, int] = {}
        # Sweep 1 visits every thread.
        self.ready_now = [True] * n_threads
        self.ready_next = [False] * n_threads
        self.position = -1

    def _wake(self, target: int) -> None:
        if target < 0:
            return
        if target > self.position:
            self.ready_now[target] = True
        else:
            self.ready_next[target] = True

    def on_push(self, qid: int) -> None:
        """Data became visible on *qid*: the consumer may unblock."""
        self._wake(self.consumer_of.get(qid, -1))

    def on_pop(self, qid: int) -> None:
        """Capacity was freed on *qid*: the producer may unblock."""
        self._wake(self.producer_of.get(qid, -1))

    def on_corrupt(self, qid: int) -> None:
        """A pointer corruption can change both the full and empty views."""
        self._wake(self.consumer_of.get(qid, -1))
        self._wake(self.producer_of.get(qid, -1))


class EventScheduler:
    """Event-driven ready-set scheduler (see module docstring)."""

    def run(self, system, threads, result) -> None:
        config = system.config
        tracer = system.tracer
        n = len(threads)
        hub = WakeHub(n)
        index_of = {id(t.node): i for i, t in enumerate(threads)}
        for edge in system.program.graph.edges:
            hub.producer_of[edge.qid] = index_of.get(id(edge.src), -1)
            hub.consumer_of[edge.qid] = index_of.get(id(edge.dst), -1)
        queues = list(system._queues.values())
        for queue in queues:
            queue.wake_hub = hub
        try:
            self._loop(config, tracer, system.profiler, threads, result, hub)
        finally:
            for queue in queues:
                queue.wake_hub = None

    def _loop(self, config, tracer, profiler, threads, result, hub) -> None:
        n = len(threads)
        live = sum(1 for t in threads if not t.done)
        sweeps = 0
        stuck_sweeps = 0
        while live:
            sweeps += 1
            if sweeps > config.max_sweeps:
                result.hung = True
                break
            progressed = False
            ready = hub.ready_now
            for i in range(n):
                if not ready[i]:
                    continue
                ready[i] = False
                thread = threads[i]
                if thread.done:
                    continue
                hub.position = i
                before = thread.progress_token()
                if thread.step() == "done":
                    live -= 1
                if thread.progress_token() != before:
                    progressed = True
            # Swap the ready sets: wakes routed "next" become current.  The
            # spin/timeout phase below belongs to the *current* sweep but its
            # wakes are only visible next sweep, so position resets to -1 and
            # further wakes land in the freshly-swapped-in ready set.
            hub.ready_now, hub.ready_next = hub.ready_next, hub.ready_now
            hub.position = -1
            if progressed:
                stuck_sweeps = 0
                continue
            if not live:
                break
            stuck_sweeps += 1
            for thread in threads:
                if not thread.done:
                    thread.spin(config.spin_instructions)
            if stuck_sweeps >= config.timeout_sweeps:
                next_ready = hub.ready_now  # already swapped: the next sweep's set
                for i, thread in enumerate(threads):
                    if not thread.done:
                        thread.force_unblock = True
                        next_ready[i] = True
                        result.forced_unblocks += 1
                        if tracer is not None:
                            tracer.emit(
                                ForcedUnblock(thread=thread.node.name, sweep=sweeps)
                            )
                        if profiler is not None:
                            # Timeline mark at the thread's own simulated
                            # clock, which does not depend on sweeps.
                            profiler.mark(
                                thread.node.name, "forced-unblock", thread.sim_now
                            )
                stuck_sweeps = 0
        result.sweeps = sweeps

