"""Precompiled per-node firing plans and per-thread frame plans for the
quiet-span fast path.

A steady-state firing of a stream node is statically determined: its
instruction cost, its per-port push/pop rates and its memory traffic are
fixed at graph-construction time (every ``Filter.instruction_cost`` /
``memory_loads`` / ``memory_stores`` in the tree returns a constant
computed from construction parameters).  The quiet-span fast path in
:class:`~repro.machine.thread.NodeThread` exploits that: instead of
re-deriving rates and charges on every firing, it compiles one
:class:`FiringPlan` per node up front and replays it for every firing that
the error injector certifies as quiet (no arrival inside the firing's
instruction window — see :meth:`repro.machine.errors.ErrorInjector.quiet_windows`).

The plan captures exactly the quantities the precise per-word path reads
from the node, so a fast firing charges bit-identical counters.  A filter
whose cost *did* vary per firing would break the plan's premise; such a
filter must be run with ``SystemConfig.exec_mode="precise"`` (no filter in
this repository does — all costs are construction-time constants).

A guarded thread whose CommGuard has one frame domain at scale 1 also gets
a :class:`FramePlan`: the shape of one whole frame computation — its
``firings`` firings plus the frame boundary CommGuard wraps around them.
It lists, per input and output port, the queue id and the plain units one
frame moves (firings × rate), and the thread counters one frame charges:
its firings' and the frame-boundary stall.  The whole-quiet-frames engine
(:meth:`repro.machine.thread.NodeThread._fire_quiet_frames`) charges K
times these for a span of K frames.  The CommGuard side of the frame
boundary is charged by the guard itself
(:meth:`repro.core.guard.CommGuard.charge_frames`), and working-set
publishes by the queues as they publish.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.streamit.filters import Filter


@dataclass(frozen=True, slots=True)
class FiringPlan:
    """Flattened steady-state shape of one node's firing.

    ``cost``
        Committed instructions per firing (``Filter.instruction_cost()``).
    ``input_rates`` / ``output_rates``
        Per-port pop/push word counts, in port order.
    ``total_inputs`` / ``total_outputs``
        Sums of the rate tuples (the per-firing items/memory word charges).
    ``memory_loads`` / ``memory_stores``
        The node's own memory traffic beyond queue words.
    ``n_outputs``
        Output-port count, used for the work() shape check.
    """

    cost: int
    input_rates: tuple[int, ...]
    output_rates: tuple[int, ...]
    total_inputs: int
    total_outputs: int
    memory_loads: int
    memory_stores: int
    n_outputs: int

    def describe(self) -> dict:
        """Static firing shape as plain JSON — the thread-track metadata
        of a profiled timeline (:class:`~repro.observability.profile.SimProfiler`),
        so an exported timeline explains each track's per-firing cost and
        rates without the program graph at hand."""
        return {
            "cost": self.cost,
            "input_rates": list(self.input_rates),
            "output_rates": list(self.output_rates),
            "memory_loads": self.memory_loads,
            "memory_stores": self.memory_stores,
        }


def compile_plan(node: Filter) -> FiringPlan:
    """Compile *node*'s statically-known firing shape into a plan."""
    input_rates = tuple(node.input_rates)
    output_rates = tuple(node.output_rates)
    return FiringPlan(
        cost=node.instruction_cost(),
        input_rates=input_rates,
        output_rates=output_rates,
        total_inputs=sum(input_rates),
        total_outputs=sum(output_rates),
        memory_loads=node.memory_loads(),
        memory_stores=node.memory_stores(),
        n_outputs=node.n_outputs,
    )


@dataclass(frozen=True, slots=True)
class FramePlan:
    """Flattened shape of one whole frame computation of a guarded thread.

    ``firings``
        Firings per frame computation (F).
    ``in_qids`` / ``in_units``
        Per input port: the queue id and the plain units one frame pops
        (F × rate), in port order.
    ``out_qids`` / ``out_units``
        The same for the output ports.
    ``instructions`` / ``items_popped`` / ``items_pushed`` / ``loads`` /
    ``stores`` / ``stall_cycles``
        Per-frame :class:`~repro.core.stats.ThreadCounters` charges: F ×
        the firing plan's, plus the frame-boundary stall.
    """

    firings: int
    in_qids: tuple[int, ...]
    in_units: tuple[int, ...]
    out_qids: tuple[int, ...]
    out_units: tuple[int, ...]
    instructions: int
    items_popped: int
    items_pushed: int
    loads: int
    stores: int
    stall_cycles: int


def compile_frame_plan(
    firing: FiringPlan,
    firings: int,
    in_qids: list[int],
    out_qids: list[int],
    stall_cycles: int,
) -> FramePlan:
    """Compile the frame plan of a guarded thread with one frame domain."""
    in_units = tuple(firings * rate for rate in firing.input_rates)
    out_units = tuple(firings * rate for rate in firing.output_rates)
    return FramePlan(
        firings=firings,
        in_qids=tuple(in_qids),
        in_units=in_units,
        out_qids=tuple(out_qids),
        out_units=out_units,
        instructions=firings * firing.cost,
        items_popped=firings * firing.total_inputs,
        items_pushed=firings * firing.total_outputs,
        loads=firings * (firing.total_inputs + firing.memory_loads),
        stores=firings * (firing.total_outputs + firing.memory_stores),
        stall_cycles=stall_cycles,
    )
