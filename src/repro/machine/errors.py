"""Architectural error injection.

Section 6 of the paper: every core has an independent error-injection module
with its own random number generator; it picks exponentially distributed
target cycles at the configured per-core MTBE and flips a random bit in the
register file when the target is reached.

We inject at the architectural-effect level those register-file flips
produce in a streaming thread (DESIGN.md §3): a flipped *data* register
corrupts a value being computed or communicated; a flipped *loop-control*
register perturbs an iteration count, changing how many items a firing
pushes or pops (the paper's alignment-error sources); a flipped *address*
register yields a garbage load — or, when the inter-thread queue's head/tail
pointers live in unprotected state, a corrupted queue pointer (the paper's
queue-management-error class).
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.observability.events import ErrorInjected

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.tracer import Tracer


class ErrorKind(enum.Enum):
    """Architectural effect class of one injected register-file error."""

    DATA = "data"          # value corruption: single bit flip in a live word
    CONTROL = "control"    # bounded item-count perturbation (AE sources)
    ADDRESS = "address"    # garbage load / queue-pointer corruption (QME)


@dataclass(frozen=True, slots=True)
class ErrorEvent:
    """One injected error, tagged with the core clock it landed on."""

    kind: ErrorKind
    at_instruction: int


@dataclass(frozen=True, slots=True)
class ErrorModel:
    """Per-core error process parameters.

    ``mtbe``
        Mean instructions between errors on *each* core (the paper's MTBE
        axis: 64k .. 8192k instructions), or ``None`` for error-free cores.
    ``p_masked``
        Fraction of injected register-file flips that are architecturally
        masked — they hit a dead register or a value that never reaches
        program state, so they have no effect.  Fault-injection studies
        (e.g. the AVF methodology the paper cites [23]) put masking well
        above half; 0.8 is our calibrated default.
    ``p_data`` / ``p_control`` / ``p_address``
        Architectural-effect mix among the *unmasked* errors (must sum
        to 1); defaults follow DESIGN.md §7.
    """

    mtbe: float | None
    p_masked: float = 0.80
    p_data: float = 0.60
    p_control: float = 0.25
    p_address: float = 0.15

    def __post_init__(self) -> None:
        if self.mtbe is not None and not 0 < self.mtbe < math.inf:
            raise ValueError(
                "mtbe must be positive and finite (or None for error-free)"
            )
        if not 0.0 <= self.p_masked < 1.0:
            raise ValueError("p_masked must be in [0, 1)")
        total = self.p_data + self.p_control + self.p_address
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"effect probabilities sum to {total}, expected 1")

    @classmethod
    def error_free(cls) -> "ErrorModel":
        return cls(mtbe=None)

    @property
    def enabled(self) -> bool:
        return self.mtbe is not None


class ErrorInjector:
    """Per-core exponential error-arrival process.

    The core advances the injector with its committed-instruction counts;
    the injector returns the errors that landed inside each advance.  Each
    core owns an independent :class:`random.Random` stream, so the MTBE is
    per core, not per machine (Section 6).

    This class is also the ``bit_flip`` fault model of the plugin registry
    in :mod:`repro.machine.faults`; other models subclass it and override
    the :meth:`_arrival` / :meth:`_effect` hooks (or just ship a different
    calibrated :class:`ErrorModel` mix).  The default model's RNG call
    sequence is frozen: results, cache keys and trace bytes of ``bit_flip``
    runs must never change.
    """

    #: Registry name of the fault model this injector implements.  The
    #: default ``bit_flip`` traces and aggregates without a model tag (the
    #: legacy encoding, kept byte-identical); subclasses override this and
    #: their identity is carried on every ``ErrorInjected`` event and on
    #: the error metrics labels.
    fault_name = "bit_flip"

    #: Whether quiet-span certification (:meth:`quiet_windows` /
    #: :meth:`consume_quiet`) is sound for this model.  The base process is
    #: purely arrival-driven, so a window strictly shorter than the current
    #: countdown provably injects nothing.  Subclasses whose ``advance()``
    #: has effects beyond exponential arrivals (e.g. stuck-at replay while
    #: dwelling) must either override :meth:`quiet_windows` to account for
    #: them or set this ``False`` to opt out of the fast path entirely.
    supports_quiet_span = True

    #: Whether this model draws and applies arrivals exactly as the base
    #: process does, so :meth:`masked_arrivals` may replay them.  Derived
    #: per class: overriding ``_arrival``, ``_draw_gap`` or ``advance``
    #: turns it off, and such a model certifies no masked run unless it
    #: overrides :meth:`masked_arrivals` with a replay of its own.
    _replays_base_arrivals = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._replays_base_arrivals = all(
            getattr(cls, hook) is getattr(ErrorInjector, hook)
            for hook in ("_arrival", "_draw_gap", "advance")
        )

    def __init__(
        self,
        model: ErrorModel,
        seed: int,
        core_id: int,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.model = model
        self.core_id = core_id
        self.rng = random.Random((seed << 8) ^ (core_id * 0x9E3779B1))
        self.clock = 0
        self.errors_injected = 0
        self.errors_masked = 0
        self.errors_by_kind: dict[ErrorKind, int] = {}
        #: Optional trace sink; ``None`` keeps injection allocation-free.
        self.tracer = tracer
        self._countdown = self._draw_gap() if model.enabled else None

    def _draw_gap(self) -> float:
        assert self.model.mtbe is not None
        return self.rng.expovariate(1.0 / self.model.mtbe)

    def advance(self, instructions: int) -> list[ErrorEvent]:
        """Advance the core clock; return errors that landed in the window."""
        if instructions < 0:
            raise ValueError("cannot advance the clock backwards")
        self.clock += instructions
        if self._countdown is None:
            return []
        events: list[ErrorEvent] = []
        self._countdown -= instructions
        while self._countdown <= 0:
            self._arrival(events)
            self._countdown += self._draw_gap()
        return events

    def quiet_windows(self, instructions: int, limit: int) -> int:
        """How many of the next *limit* consecutive windows of
        *instructions* each would provably inject nothing, counted from
        the first — the *error horizon* check of the quiet-span fast path.
        Certified windows are consumed with :meth:`consume_quiet`.

        The countdown to the next arrival is already drawn, so a window is
        quiet iff it ends strictly before the countdown reaches zero
        (``advance`` fires the arrival when the countdown hits 0 exactly).
        The count replays that test window by window on the countdown each
        earlier window's :meth:`consume_quiet` subtraction would leave, so
        ``quiet_windows(n, m)`` equals *m* successive ``quiet_windows(n, 1)``
        / ``consume_quiet(n)`` steps stopping at the first refusal.  It
        certifies windows; its twin :meth:`masked_arrivals` certifies a
        whole run.  Fault models with effects beyond arrivals override it.
        """
        if not self.supports_quiet_span:
            return 0
        countdown = self._countdown
        if countdown is None:
            return limit
        windows = 0
        while windows < limit and countdown > instructions:
            countdown -= instructions
            windows += 1
        return windows

    def consume_quiet(self, instructions: int, windows: int = 1) -> None:
        """Advance the clock through *windows* consecutive windows of
        *instructions* each, all certified by :meth:`quiet_windows`.

        The arithmetic is *identical* to one :meth:`advance` per window —
        the same clock adds and one countdown subtraction per window — so
        interleaving quiet and precise windows keeps the arrival process
        (and therefore the RNG stream) bit-identical to an all-precise run.
        Floating-point subtraction is not associative, so the
        one-subtraction-per-window discipline is load-bearing: never merge
        several windows into one subtraction.
        """
        self.clock += instructions * windows
        countdown = self._countdown
        if countdown is not None:
            for _ in range(windows):
                countdown -= instructions
            self._countdown = countdown

    def masked_arrivals(self, clock: int) -> int | None:
        """How many arrivals land before the core clock reaches *clock*,
        when every one of them is masked; ``None`` when any would be
        unmasked — the *masked-run* check, :meth:`quiet_windows`' twin for
        the rest of a run.  Nothing is consumed.

        A masked arrival changes only ``errors_injected`` and
        ``errors_masked``, so a core whose arrivals up to its final clock
        are all masked runs exactly as with no error process.  The check
        replays the remaining arrival process on a copy of the RNG, with
        ``_arrival``'s draws in ``_arrival``'s order: the mask draw, then
        the next gap.  An arrival within one instruction of *clock*
        returns ``None``: between arrivals the countdown subtracts integer
        windows from a positive double below 2**53, which is exact, and the
        rounding at each arrival is far below one instruction, but an
        arrival that close cannot be placed on one side of the end.  A
        model whose arrivals this replay does not reproduce (see
        ``_replays_base_arrivals``) certifies nothing.
        """
        if not self._replays_base_arrivals:
            return None
        at = self._countdown  # instructions from now to the next arrival
        if at is None:
            return 0
        horizon = clock - self.clock
        if at > horizon + 1:
            return 0  # no arrival in reach: no RNG copy needed
        rng = random.Random.__new__(random.Random)  # no __init__ reseeding
        rng.setstate(self.rng.getstate())
        p_masked = self.model.p_masked
        rate = 1.0 / self.model.mtbe
        arrivals = 0
        while at < horizon - 1:
            if rng.random() >= p_masked:
                return None
            arrivals += 1
            at += rng.expovariate(rate)  # _draw_gap on the copy
        return None if at <= horizon + 1 else arrivals

    def _arrival(self, events: list[ErrorEvent]) -> None:
        """One error arrival: draw masking, then the architectural effect.

        Subclasses may inject additional flips per arrival (bursts) or
        remember the effect (stuck-at faults), but the base implementation's
        RNG draw order is load-bearing: it is what makes ``bit_flip`` runs
        bit-identical to the pre-registry injector.
        """
        self.errors_injected += 1
        if self.rng.random() < self.model.p_masked:
            self.errors_masked += 1  # flip hit a dead register
            if self.tracer is not None:
                self._trace(None)
        else:
            self._effect(self._draw_kind(), events)

    def _effect(self, kind: ErrorKind, events: list[ErrorEvent]) -> None:
        """Record one unmasked error of *kind* at the current clock."""
        self.errors_by_kind[kind] = self.errors_by_kind.get(kind, 0) + 1
        events.append(ErrorEvent(kind=kind, at_instruction=self.clock))
        if self.tracer is not None:
            self._trace(kind)

    @property
    def _model_tag(self) -> str | None:
        """Model identity carried on trace events (``None`` = legacy
        ``bit_flip`` encoding, keeping default traces byte-identical)."""
        return None if self.fault_name == "bit_flip" else self.fault_name

    def _trace(self, kind: ErrorKind | None) -> None:
        self.tracer.emit(
            ErrorInjected(
                core=self.core_id,
                at_instruction=self.clock,
                effect=None if kind is None else kind.value,
                masked=kind is None,
                model=self._model_tag,
            )
        )

    def _draw_kind(self) -> ErrorKind:
        roll = self.rng.random()
        if roll < self.model.p_data:
            return ErrorKind.DATA
        if roll < self.model.p_data + self.model.p_control:
            return ErrorKind.CONTROL
        return ErrorKind.ADDRESS
