"""Counts error-free simulations per app, in the parent and every worker.

The underscore prefix keeps pytest from collecting this module.  The spy
wraps ``MulticoreSystem.build``, which both the executor
(``repro.experiments.runner``) and the lazy reference
(``repro.apps.base``, through ``run_program``) call once per run, and
appends the app's name to the file named by ``$REPRO_ERROR_FREE_SPY``
for every ``ERROR_FREE`` run, one line each, so every process counts into
the same file.  It names an app by the program the executor built for it.

Install it in the test process with :func:`install` (passing
``monkeypatch.setattr``) and in pool workers by replacing
``repro.experiments.parallel._init_worker`` with :func:`init_worker`.
A forked worker inherits the parent's installation; a spawned one
installs its own.
"""

import os
from collections import Counter
from pathlib import Path

import repro.experiments.parallel as parallel
import repro.experiments.runner as runner
from repro.machine.protection import ProtectionLevel
from repro.machine.system import MulticoreSystem

ENV = "REPRO_ERROR_FREE_SPY"

_init_worker = parallel._init_worker
#: id(program) -> app name, for the programs this process built.
_names: dict[int, str] = {}


def _spied_build(build_app):
    def spied(name, scale=1.0):
        app = build_app(name, scale=scale)
        _names[id(app.program)] = name
        return app

    return spied


def _spied_machine_build(build):
    def spied(cls, program, protection, *args, **kwargs):
        if protection is ProtectionLevel.ERROR_FREE:
            with open(os.environ[ENV], "a") as log:
                log.write(f"{_names.get(id(program), '?')}\n")
        return build(program, protection, *args, **kwargs)

    spied.error_free_spy = True
    return classmethod(spied)


def install(setattr=setattr) -> None:
    """Wrap the builds in this process (once)."""
    if getattr(MulticoreSystem.build, "error_free_spy", False):
        return
    setattr(runner, "build_app", _spied_build(runner.build_app))
    setattr(MulticoreSystem, "build", _spied_machine_build(MulticoreSystem.build))


def init_worker(scale: float) -> None:
    install()
    _init_worker(scale)


def counts(log: Path) -> Counter:
    """Error-free simulations per app logged so far."""
    if not log.exists():
        return Counter()
    return Counter(log.read_text().split())
