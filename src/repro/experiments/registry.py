"""Figure registry: every paper artifact declares itself once.

Each ``figXX``/``tables``/``ablations``/``campaign`` module declares its
:class:`~repro.experiments.fidelity.PaperTarget`\\ s in a module-level
``paper_targets()`` and calls :func:`register_figure` at import time with
its name, description, paper section and optional aliases.  ``repro
paper`` grades every registered figure's targets, ``repro figure NAME``
grades one figure's, and the CLI's ``figure`` and ``list`` commands and
:func:`repro.experiments.figure_specs` all derive from this registry —
there is no hand-maintained dispatch table to drift out of sync.

``figNN`` names get their zero-padded spelling as an automatic alias
(``fig3`` <-> ``fig03``), so both forms resolve.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_FIG_NUMBER = re.compile(r"^fig(\d+)$")


@dataclass(frozen=True)
class FigureSpec:
    """One registered paper artifact."""

    name: str
    module: str
    description: str
    paper_section: str = ""
    aliases: tuple[str, ...] = ()

    @property
    def all_names(self) -> tuple[str, ...]:
        return (self.name, *self.aliases)


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
