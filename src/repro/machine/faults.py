"""Pluggable fault-model registry.

The paper's argument (Section 2) is that *where* and *how* errors strike
decides whether they stay tolerable data errors or escalate into
catastrophic control/communication errors.  The seed injector modelled
exactly one fault process — exponential-MTBE register bit flips — which is
enough for the headline figures but cannot exercise the richer error space
of the related work (control-flow corruption in multithreaded programs,
silent data corruption, stuck-at faults).

This module generalizes :class:`~repro.machine.errors.ErrorInjector` into
named, parameterized, composable **fault models**:

``bit_flip``
    The calibrated default: independent exponential arrivals, one register
    flip each.  Byte-identical to the pre-registry injector — same results,
    same cache keys, same trace bytes.
``burst``
    Clustered multi-bit upsets: each arrival flips ``1..max_len`` registers
    back-to-back (geometric cluster length with continuation probability
    ``p_cluster``), modelling particle strikes that span registers.
``control_flow``
    Corruption concentrated on loop/branch state, so per-firing push/pop
    counts drift — the paper's Section 2 catastrophic alignment-error case.
``queue_state``
    Corruption concentrated on addressing and queue-management state
    (shared pointers / working-set entries), exercising the ECC-protected
    QM handoffs and the forced-unblock timeout paths.
``sticky``
    Stuck-at register faults: an unmasked flip keeps re-corrupting the
    same architectural effect for ``dwell`` further instructions.

Selecting a model: everything user-facing accepts the spec syntax
``name[:param=val,...]`` (e.g. ``burst:p_cluster=0.7,max_len=4``), parsed
by :meth:`FaultModelSpec.parse`.  The selection threads through
:class:`~repro.machine.system.SystemConfig`, ``RunSpec``,
:func:`repro.api.run` / :func:`repro.api.sweep` and the CLI's
``--fault-model`` flag; the model identity is carried on every
``ErrorInjected`` trace event and on the error-metrics labels (the default
``bit_flip`` keeps the legacy unlabelled encoding).

Registering a custom model (see FAULTS.md for the full guide)::

    from repro.machine import faults
    from repro.machine.errors import ErrorInjector

    class MyInjector(ErrorInjector):
        fault_name = "my_model"

    faults.register_fault_model(faults.FaultModel(
        name="my_model",
        summary="what it corrupts",
        injector_cls=MyInjector,
        mix={"p_data": 0.9, "p_control": 0.05, "p_address": 0.05},
        params={"knob": 1.0},
    ))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.machine.errors import ErrorEvent, ErrorInjector, ErrorKind, ErrorModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.tracer import Tracer

#: Name of the calibrated default model (the pre-registry injector).
DEFAULT_FAULT_MODEL = "bit_flip"

#: ErrorModel fields every model accepts as spec parameters (they override
#: the model's calibrated mix; the ablation harness sweeps the same knobs).
_MIX_PARAMS = ("p_masked", "p_data", "p_control", "p_address")


@dataclass(frozen=True, slots=True)
class FaultModelSpec:
    """A parsed ``name[:param=val,...]`` fault-model selection.

    Frozen and hashable so it can ride inside frozen run specs; ``params``
    is a sorted tuple of ``(name, value)`` pairs, which makes
    :meth:`canonical` stable regardless of the spelling order the user
    typed.
    """

    name: str = DEFAULT_FAULT_MODEL
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    @classmethod
    def parse(cls, text: str) -> "FaultModelSpec":
        """Parse ``"burst:p_cluster=0.7,max_len=4"`` (params optional).

        Raises ``ValueError`` for unknown models, unknown parameters, and
        unparsable values — with the valid choices in the message.
        """
        text = text.strip()
        name, _, param_text = text.partition(":")
        name = name.strip().replace("-", "_")
        params: list[tuple[str, float]] = []
        if param_text.strip():
            for item in param_text.split(","):
                key, sep, value = item.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise ValueError(
                        f"malformed fault-model parameter {item!r} in "
                        f"{text!r}; expected 'name:param=val[,param=val...]' "
                        "(e.g. 'burst:p_cluster=0.7,max_len=4')"
                    )
                try:
                    params.append((key, float(value)))
                except ValueError:
                    raise ValueError(
                        f"unparsable fault-model parameter value {value!r} "
                        f"for {key!r} in {text!r}; expected a number "
                        "(e.g. 'sticky:dwell=50000')"
                    ) from None
        spec = cls(name=name, params=tuple(params))
        resolve_fault_model(spec)  # validates name and parameter names
        return spec

    @classmethod
    def coerce(
        cls, value: "FaultModelSpec | str | None"
    ) -> "FaultModelSpec":
        """Normalize an optional user-facing selection (``None`` = default)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            resolve_fault_model(value)
            return value
        return cls.parse(value)

    def canonical(self) -> str:
        """The canonical string form (sorted params, ``%g`` values)."""
        if not self.params:
            return self.name
        rendered = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.name}:{rendered}"

    def param(self, name: str, default: float) -> float:
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def is_default(self) -> bool:
        return self.name == DEFAULT_FAULT_MODEL and not self.params


# -- concrete injectors ---------------------------------------------------------


class BurstInjector(ErrorInjector):
    """Clustered multi-bit upsets.

    Each exponential arrival starts a cluster: after the first flip, the
    cluster continues with probability ``p_cluster`` per additional flip,
    capped at ``max_len`` flips total.  Every flip in the cluster draws
    masking and effect independently (a burst can straddle dead and live
    registers), and all land at the same instruction clock.

    Certifies no masked run: the cluster-length draws interleave with the
    mask draws, which the base :meth:`~ErrorInjector.masked_arrivals`
    replay does not reproduce, and overriding ``_arrival`` opts it out.
    """

    fault_name = "burst"

    def __init__(
        self,
        model: ErrorModel,
        seed: int,
        core_id: int,
        tracer: "Tracer | None" = None,
        p_cluster: float = 0.5,
        max_len: float = 8,
    ) -> None:
        super().__init__(model, seed, core_id, tracer=tracer)
        if not 0.0 <= p_cluster < 1.0:
            raise ValueError("p_cluster must be in [0, 1)")
        if int(max_len) < 1:
            raise ValueError("max_len must be >= 1")
        self.p_cluster = p_cluster
        self.max_len = int(max_len)

    def _arrival(self, events: list[ErrorEvent]) -> None:
        length = 1
        ErrorInjector._arrival(self, events)
        while length < self.max_len and self.rng.random() < self.p_cluster:
            length += 1
            ErrorInjector._arrival(self, events)


class ControlFlowInjector(ErrorInjector):
    """Corruption of loop-control and branch state.

    Mechanically identical to the base process but with the calibrated
    effect mix tilted to CONTROL errors (see :data:`FAULT_MODELS`): most
    unmasked flips perturb a firing's push/pop item counts, which without
    CommGuard drift queues out of alignment permanently — the paper's
    Section 2 catastrophic case.  Its arrivals are the base process's, so
    the base :meth:`~ErrorInjector.masked_arrivals` certifies its masked
    runs.
    """

    fault_name = "control_flow"


class QueueStateInjector(ErrorInjector):
    """Corruption of addressing and queue-management state.

    Effect mix tilted to ADDRESS errors: corrupted head/tail pointers on
    software queues (the QME class of Fig. 3b), garbage loads elsewhere.
    Under CommGuard this exercises the ECC-protected working-set handoffs
    and the QM timeout / forced-unblock recovery paths.  Only the mix
    differs from the base process, so the base
    :meth:`~ErrorInjector.masked_arrivals` certifies its masked runs.
    """

    fault_name = "queue_state"


class StickyInjector(ErrorInjector):
    """Stuck-at register faults with configurable dwell.

    An unmasked flip leaves the register stuck: the same architectural
    effect recurs in every subsequent advance window until ``dwell``
    instructions have elapsed.  Repeats consume no RNG draws, so the
    underlying arrival process stays aligned with ``bit_flip``'s.

    Certifies no masked run: overriding ``advance`` opts it out of the
    base :meth:`~ErrorInjector.masked_arrivals` replay.
    """

    fault_name = "sticky"

    def __init__(
        self,
        model: ErrorModel,
        seed: int,
        core_id: int,
        tracer: "Tracer | None" = None,
        dwell: float = 20_000,
    ) -> None:
        super().__init__(model, seed, core_id, tracer=tracer)
        if dwell < 0:
            raise ValueError("dwell must be >= 0")
        self.dwell = float(dwell)
        self._stuck_kind: ErrorKind | None = None
        self._stuck_until = 0.0

    def _effect(self, kind: ErrorKind, events: list[ErrorEvent]) -> None:
        super()._effect(kind, events)
        self._stuck_kind = kind
        self._stuck_until = self.clock + self.dwell

    def advance(self, instructions: int) -> list[ErrorEvent]:
        events = super().advance(instructions)
        if self._stuck_kind is not None:
            if self.clock <= self._stuck_until:
                if not events:  # stuck register re-corrupts this window
                    self.errors_injected += 1
                    # Record via the base hook: a repeat must not re-arm
                    # the dwell window (it would otherwise never clear).
                    ErrorInjector._effect(self, self._stuck_kind, events)
            else:
                self._stuck_kind = None
        return events

    def quiet_windows(self, instructions: int, limit: int) -> int:
        # While a register is stuck, every advance window re-corrupts (and
        # an expired dwell is only cleared by advance()); no window is
        # quiet until the precise path has run the fault off.
        if self._stuck_kind is not None:
            return 0
        return super().quiet_windows(instructions, limit)


# -- the registry ---------------------------------------------------------------


@dataclass(frozen=True)
class FaultModel:
    """One registered fault model.

    ``mix`` holds the model's calibrated :class:`ErrorModel` overrides
    (``p_masked`` / ``p_data`` / ``p_control`` / ``p_address``); ``params``
    declares the injector-constructor knobs and their defaults.  Spec
    parameters are routed by name: mix fields update the error model, and
    declared params go to the injector constructor; anything else is
    rejected at parse time.
    """

    name: str
    summary: str
    injector_cls: type[ErrorInjector] = ErrorInjector
    mix: dict[str, float] = field(default_factory=dict)
    params: dict[str, float] = field(default_factory=dict)
    #: Which paper scenario the model reproduces (shown by ``repro list``).
    scenario: str = ""


FAULT_MODELS: dict[str, FaultModel] = {}


def register_fault_model(model: FaultModel, replace: bool = False) -> FaultModel:
    """Add a model to the registry (the plugin entry point).

    ``replace=False`` (the default) refuses to shadow an existing name, so
    a plugin import cannot silently redefine ``bit_flip`` semantics.
    """
    if not replace and model.name in FAULT_MODELS:
        raise ValueError(f"fault model {model.name!r} is already registered")
    unknown_mix = set(model.mix) - set(_MIX_PARAMS)
    if unknown_mix:
        raise ValueError(
            f"unknown mix fields {sorted(unknown_mix)}; valid: {_MIX_PARAMS}"
        )
    FAULT_MODELS[model.name] = model
    return model


def fault_model_names() -> tuple[str, ...]:
    """Registered model names, default first, then registration order."""
    names = [DEFAULT_FAULT_MODEL]
    names += [n for n in FAULT_MODELS if n != DEFAULT_FAULT_MODEL]
    return tuple(names)


def resolve_fault_model(spec: "FaultModelSpec | str") -> FaultModel:
    """Look a spec's model up, validating its parameter names."""
    if isinstance(spec, str):
        spec = FaultModelSpec.parse(spec)
    model = FAULT_MODELS.get(spec.name)
    if model is None:
        raise ValueError(
            f"unknown fault model {spec.name!r}; "
            f"valid choices: {', '.join(fault_model_names())}"
        )
    valid = set(model.params) | set(_MIX_PARAMS)
    for key, _value in spec.params:
        if key not in valid:
            raise ValueError(
                f"fault model {spec.name!r} has no parameter {key!r}; "
                f"valid: {', '.join(sorted(valid))}"
            )
    return model


def default_error_model(
    spec: "FaultModelSpec | str | None", mtbe: float | None
) -> ErrorModel:
    """The calibrated :class:`ErrorModel` for *spec* at *mtbe*.

    Starts from the base defaults, applies the model's ``mix`` overrides,
    then any mix parameters given in the spec itself.  ``bit_flip`` with no
    parameters returns exactly ``ErrorModel(mtbe=mtbe)``.
    """
    spec = FaultModelSpec.coerce(spec)
    model = resolve_fault_model(spec)
    kwargs = dict(model.mix)
    for key, value in spec.params:
        if key in _MIX_PARAMS:
            kwargs[key] = value
    return ErrorModel(mtbe=mtbe, **kwargs)


def build_injector(
    spec: "FaultModelSpec | str | None",
    error_model: ErrorModel,
    seed: int,
    core_id: int,
    tracer: "Tracer | None" = None,
) -> ErrorInjector:
    """Instantiate one per-core injector for *spec*.

    The default spec constructs a plain :class:`ErrorInjector` with the
    same arguments as before the registry existed — bit-identical
    behaviour is the contract, not an accident.
    """
    spec = FaultModelSpec.coerce(spec)
    model = resolve_fault_model(spec)
    kwargs = {
        name: spec.param(name, default) for name, default in model.params.items()
    }
    return model.injector_cls(
        error_model, seed, core_id, tracer=tracer, **kwargs
    )


# -- built-in registrations -----------------------------------------------------

register_fault_model(
    FaultModel(
        name="bit_flip",
        summary="independent exponential-MTBE register bit flips (default)",
        injector_cls=ErrorInjector,
        scenario="Section 6 baseline error process",
    )
)

register_fault_model(
    FaultModel(
        name="burst",
        summary="clustered multi-bit flips per arrival (particle strikes)",
        injector_cls=BurstInjector,
        params={"p_cluster": 0.5, "max_len": 8},
        scenario="multi-bit upsets; stresses per-frame error density",
    )
)

register_fault_model(
    FaultModel(
        name="control_flow",
        summary="iteration/branch-state corruption: push/pop counts drift",
        injector_cls=ControlFlowInjector,
        mix={"p_data": 0.10, "p_control": 0.75, "p_address": 0.15},
        scenario="Section 2 catastrophic alignment-error case (Fig. 3c)",
    )
)

register_fault_model(
    FaultModel(
        name="queue_state",
        summary="addressing/queue-pointer corruption (QME class)",
        injector_cls=QueueStateInjector,
        mix={"p_masked": 0.65, "p_data": 0.10, "p_control": 0.10, "p_address": 0.80},
        scenario="Fig. 3b queue-management errors; ECC + forced-unblock paths",
    )
)

register_fault_model(
    FaultModel(
        name="sticky",
        summary="stuck-at register faults with configurable dwell",
        injector_cls=StickyInjector,
        params={"dwell": 20_000},
        scenario="stuck-at faults / silent recurring corruption",
    )
)
