"""Filter (node) definitions for the streaming substrate.

A :class:`Filter` is a coarse-grained compute node with statically declared
per-firing input (pop) and output (push) rates, StreamIt-style.  The runtime
fires a filter by popping ``rate`` words from each input edge, calling
:meth:`Filter.work` with those words, and pushing the returned words to each
output edge.  Keeping pops and pushes in the runtime (rather than inside the
work function) is what lets the machine layer route them through CommGuard
and inject architectural errors at the push/pop interface.

Words are 32-bit integers (:mod:`repro.words`); :class:`FloatFilter` adds
float32 conversion for signal-processing filters.

The runtime's fast path computes a span of consecutive quiet firings with
one :meth:`Filter.work_many` call, which takes and returns ``work``'s
batches with the span's firings back to back on each port.  Its default
loops :meth:`Filter.work`; a filter may override it with a kernel that
handles the whole span at once.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Sequence

from repro.words import float_to_word, int_to_word, word_to_float

#: Input/output batch type passed to work(): one list of words per port.
Batch = list[list[int]]


class Filter:
    """Base class for all stream nodes.

    Subclasses declare ``input_rates`` and ``output_rates`` (words per
    firing, one entry per port) and implement :meth:`work`.
    """

    #: Default instruction-cost model parameters (calibrated so that a
    #: communication event occurs every ~7 compute instructions on average,
    #: as the paper reports for its benchmarks).
    cost_base: int = 20
    cost_per_item: int = 7

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A kernel computes the firings of the class that wrote it: a
        # subclass with its own ``work`` and no kernel of its own gets the
        # default span body, which loops that ``work``.
        if "work" in cls.__dict__ and "work_many" not in cls.__dict__:
            cls.work_many = Filter.work_many

    def __init__(
        self,
        name: str,
        input_rates: Sequence[int] = (),
        output_rates: Sequence[int] = (),
    ) -> None:
        if any(r < 1 for r in input_rates) or any(r < 1 for r in output_rates):
            raise ValueError(f"filter {name}: rates must be positive")
        self.name = name
        self.input_rates = tuple(input_rates)
        self.output_rates = tuple(output_rates)

    # -- to implement -----------------------------------------------------------

    def work(self, inputs: Batch) -> Batch:
        """Compute one firing: consume *inputs*, return output batches.

        ``inputs[p]`` has exactly ``input_rates[p]`` words; the return value
        must have ``output_rates[p]`` words per output port.

        The contract batched filters rely on:

        * the caller owns the returned lists and may flip their bits in
          place, so never return a list the filter keeps (or one list on
          two ports);
        * output words are Python ints in ``[0, 2**32)``;
        * a source that reads a reliable container may decode it on its
          first :meth:`reset`, never at construction: sweeps build apps
          they never run (a store replay builds one and executes nothing).
        """
        raise NotImplementedError

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        """Compute *firings* consecutive firings at once: ``inputs[p]``
        holds the firings' ``input_rates[p]``-word inputs back to back,
        and the result holds the firings' outputs likewise,
        ``firings * output_rates[p]`` words per output port.

        The contract a kernel that overrides this keeps:

        * it equals the :meth:`work` calls of the same firings, run one by
          one, in every output word and, afterwards, in
          :meth:`state_words` and the effect of :meth:`write_state_word` —
          the precise path flips state bits between firings, so the span
          must leave exactly the state the same firings leave;
        * it returns fresh lists, under :meth:`work`'s ownership rules;
        * the runtime calls it only for spans of two or more firings, and
          :meth:`work` for a single one.

        The default splits each port's words per firing, loops
        :meth:`work` and joins the outputs, so a filter without a kernel
        has one body.  A subclass that overrides :meth:`work` and not this
        gets the default again: a kernel never computes another class's
        firings.
        """
        spans = [
            [words[start : start + rate] for start in range(0, len(words), rate)]
            for words, rate in zip(inputs, self.input_rates)
        ]
        batches = map(list, zip(*spans)) if spans else ([] for _ in range(firings))
        results = [self.work(batch) for batch in batches]
        return [
            list(chain.from_iterable(map(itemgetter(port), results)))
            for port in range(len(self.output_rates))
        ]

    # -- cost model (Section 6: power proxy / instruction accounting) -----------

    def instruction_cost(self) -> int:
        """Estimated committed instructions per firing."""
        items = sum(self.input_rates) + sum(self.output_rates)
        return self.cost_base + self.cost_per_item * items

    def memory_loads(self) -> int:
        """Estimated data loads per firing (beyond queue pops themselves).

        Roughly a third of x86 instructions are loads; this anchors the
        denominator of the paper's Fig. 12 (header traffic vs all memory
        events).
        """
        return self.instruction_cost() // 3

    def memory_stores(self) -> int:
        """Estimated data stores per firing (beyond queue pushes themselves).

        Streaming threads store nearly as often as they load (pushes,
        buffer writes, spills).
        """
        return (2 * self.instruction_cost()) // 7

    # -- persistent state hooks (for data-error injection into filter state) ----

    def state_words(self) -> list[int]:
        """Persistent 32-bit state words an architectural error could hit."""
        return []

    def write_state_word(self, index: int, word: int) -> None:
        """Overwrite one persistent state word (error-injection hook)."""
        raise IndexError(f"filter {self.name} has no corruptible state")

    # -- misc --------------------------------------------------------------------

    @property
    def n_inputs(self) -> int:
        return len(self.input_rates)

    @property
    def n_outputs(self) -> int:
        return len(self.output_rates)

    def reset(self) -> None:
        """Clear any persistent state before a run (default: nothing)."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, in={self.input_rates}, "
            f"out={self.output_rates})"
        )


class FloatFilter(Filter):
    """Filter whose work function deals in Python floats (stored as float32)."""

    def work(self, inputs: Batch) -> Batch:
        float_inputs = [[word_to_float(w) for w in port] for port in inputs]
        float_outputs = self.work_floats(float_inputs)
        return [[float_to_word(v) for v in port] for port in float_outputs]

    def work_floats(self, inputs: list[list[float]]) -> list[list[float]]:
        raise NotImplementedError


class Identity(Filter):
    """Pass-through filter (useful for topology tests)."""

    def __init__(self, name: str = "identity", rate: int = 1) -> None:
        super().__init__(name, input_rates=(rate,), output_rates=(rate,))

    def work(self, inputs: Batch) -> Batch:
        return [list(inputs[0])]


class IntSource(Filter):
    """Source that streams a preloaded list of integer words."""

    def __init__(self, name: str, data: Sequence[int], rate: int = 1) -> None:
        super().__init__(name, input_rates=(), output_rates=(rate,))
        if len(data) % rate:
            raise ValueError(
                f"source {name}: data length {len(data)} not a multiple of rate {rate}"
            )
        self.data = [int_to_word(w) for w in data]
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    @property
    def total_firings(self) -> int:
        return len(self.data) // self.output_rates[0]

    def work(self, inputs: Batch) -> Batch:
        rate = self.output_rates[0]
        chunk = self.data[self._cursor : self._cursor + rate]
        self._cursor += rate
        if len(chunk) < rate:  # exhausted: pad with zeros (end of stream)
            chunk = chunk + [0] * (rate - len(chunk))
        return [chunk]


class FloatSource(IntSource):
    """Source that streams a preloaded list of floats as float32 words."""

    def __init__(self, name: str, data: Sequence[float], rate: int = 1) -> None:
        super().__init__(name, [float_to_word(v) for v in data], rate=rate)


class IntSink(Filter):
    """Sink that collects integer words into :attr:`collected`."""

    def __init__(self, name: str, rate: int = 1) -> None:
        super().__init__(name, input_rates=(rate,), output_rates=())
        self.collected: list[int] = []

    def reset(self) -> None:
        self.collected = []

    def work(self, inputs: Batch) -> Batch:
        self.collected.extend(inputs[0])
        return []


class FloatSink(IntSink):
    """Sink that exposes collected words as floats."""

    def collected_floats(self) -> list[float]:
        return [word_to_float(w) for w in self.collected]


class DuplicateSplitter(Filter):
    """StreamIt duplicate splitter: copy each input item to every branch."""

    def __init__(self, name: str, n_branches: int, rate: int = 1) -> None:
        super().__init__(
            name, input_rates=(rate,), output_rates=(rate,) * n_branches
        )

    def work(self, inputs: Batch) -> Batch:
        return [list(inputs[0]) for _ in range(self.n_outputs)]


class RoundRobinSplitter(Filter):
    """StreamIt round-robin splitter with per-branch weights."""

    def __init__(self, name: str, weights: Sequence[int]) -> None:
        super().__init__(
            name, input_rates=(sum(weights),), output_rates=tuple(weights)
        )
        self.weights = tuple(weights)

    def work(self, inputs: Batch) -> Batch:
        outputs: Batch = []
        cursor = 0
        for weight in self.weights:
            outputs.append(inputs[0][cursor : cursor + weight])
            cursor += weight
        return outputs


class RoundRobinJoiner(Filter):
    """StreamIt round-robin joiner with per-branch weights."""

    def __init__(self, name: str, weights: Sequence[int]) -> None:
        super().__init__(
            name, input_rates=tuple(weights), output_rates=(sum(weights),)
        )
        self.weights = tuple(weights)

    def work(self, inputs: Batch) -> Batch:
        merged: list[int] = []
        for port in inputs:
            merged.extend(port)
        return [merged]
