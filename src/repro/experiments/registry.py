"""Figure registry: every paper artifact declares itself once.

Each ``figXX``/``tables``/``ablations``/``campaign`` module calls
:func:`register_figure` at import time with its name, description, paper
section and optional aliases; the CLI's ``figure`` and ``list`` commands
and :func:`repro.experiments.figure_specs` all derive from this registry —
there is no hand-maintained dispatch table to drift out of sync.

``figNN`` names get their zero-padded spelling as an automatic alias
(``fig3`` <-> ``fig03``), so both forms resolve.

Running a spec funnels the shared :class:`EngineOptions` into whatever
subset of ``(scale, jobs, store)`` the harness's ``main()`` supports and
wraps the output in a :class:`FigureArtifact`.
"""

from __future__ import annotations

import importlib
import inspect
import re
from dataclasses import dataclass

from repro.experiments.options import EngineOptions

_FIG_NUMBER = re.compile(r"^fig(\d+)$")


@dataclass(frozen=True)
class FigureArtifact:
    """One regenerated paper artifact: the rendered text plus provenance."""

    name: str
    text: str
    options: EngineOptions


@dataclass(frozen=True)
class FigureSpec:
    """One registered paper artifact and how to regenerate it."""

    name: str
    module: str
    description: str
    paper_section: str = ""
    aliases: tuple[str, ...] = ()

    @property
    def all_names(self) -> tuple[str, ...]:
        return (self.name, *self.aliases)

    def run(self, options: EngineOptions | None = None) -> FigureArtifact:
        """Regenerate the artifact through the shared engine options.

        A harness whose ``main()`` accepts ``options`` receives the whole
        :class:`EngineOptions` (the preferred convention — store-backed
        resume included); other harnesses get whatever subset of
        ``(scale, jobs, store)`` they support, ``store`` being
        :meth:`EngineOptions.batch_store`.
        """
        options = options or EngineOptions()
        module = importlib.import_module(self.module)
        supported = inspect.signature(module.main).parameters
        kwargs = {}
        if "options" in supported:
            kwargs["options"] = options
        else:
            if options.scale is not None and "scale" in supported:
                kwargs["scale"] = options.scale
            if "jobs" in supported:
                kwargs["jobs"] = options.jobs
            if "store" in supported:
                kwargs["store"] = options.batch_store()
        return FigureArtifact(name=self.name, text=module.main(**kwargs), options=options)


#: Registration order is display order (`repro list`, `repro figure --list`).
_SPECS: dict[str, FigureSpec] = {}
#: Every accepted spelling (canonical + aliases) -> canonical name.
_ALIASES: dict[str, str] = {}


def _implied_aliases(name: str) -> tuple[str, ...]:
    match = _FIG_NUMBER.match(name)
    if not match:
        return ()
    number = int(match.group(1))
    implied = {f"fig{number}", f"fig{number:02d}"} - {name}
    return tuple(sorted(implied))


def register_figure(
    name: str,
    module: str,
    description: str,
    paper_section: str = "",
    aliases: tuple[str, ...] = (),
) -> FigureSpec:
    """Register one artifact (idempotent per name; figure modules call this
    at import time with ``module=__name__``)."""
    spec = FigureSpec(
        name=name,
        module=module,
        description=description,
        paper_section=paper_section,
        aliases=tuple(dict.fromkeys((*aliases, *_implied_aliases(name)))),
    )
    existing = _SPECS.get(name)
    if existing is not None:
        if existing != spec:
            raise ValueError(f"figure {name!r} already registered differently")
        return existing
    for alias in spec.all_names:
        owner = _ALIASES.get(alias)
        if owner is not None and owner != name:
            raise ValueError(f"figure alias {alias!r} already taken by {owner!r}")
    _SPECS[name] = spec
    for alias in spec.all_names:
        _ALIASES[alias] = name
    return spec


def figure_specs() -> tuple[FigureSpec, ...]:
    """All registered artifacts, in registration order."""
    return tuple(_SPECS.values())


def figure_names(include_aliases: bool = False) -> tuple[str, ...]:
    """Canonical names (optionally every accepted spelling)."""
    if include_aliases:
        return tuple(_ALIASES)
    return tuple(_SPECS)


def resolve_figure(name: str) -> FigureSpec:
    """Look up a spec by canonical name or alias."""
    canonical = _ALIASES.get(name)
    if canonical is None:
        known = ", ".join(_SPECS)
        raise ValueError(f"unknown figure {name!r} (known: {known})")
    return _SPECS[canonical]
