"""Content keys and record serialization for stored sweep results.

Every simulated point is fully determined by its :class:`RunSpec` plus the
app-build ``scale`` — per-spec seeding makes runs independent and
bit-reproducible — so a completed :class:`RunRecord` can be stored under a
content key and reused when a figure is regenerated or an interrupted
campaign resumes.  :class:`~repro.experiments.store.RunStore` is that
store; this module owns what it is keyed and serialized by.

Keys are a SHA-256 content hash over the canonical JSON encoding of the
spec, the scale, and a format-version tag, so any change to a spec field —
or to the record schema — invalidates cleanly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.experiments.runner import RunRecord
from repro.machine.protection import ProtectionLevel

#: Bump when the RunSpec/RunRecord schema (or run semantics) change; old
#: stored entries then miss instead of resurfacing stale results.
CACHE_VERSION = 1


#: RunSpec fields retired in repro 4.0.  The two Queue Manager timeouts
#: never reached the simulator, yet every key ever stored hashes them at
#: their one value; ``trace`` and ``exec_mode`` never entered a key.
_RETIRED_TIMEOUTS = {"push_timeout": 100_000, "pop_timeout": 100_000}
_RETIRED_FIELDS = frozenset({*_RETIRED_TIMEOUTS, "trace", "exec_mode"})


def spec_key(spec, scale: float) -> str:
    """Deterministic content key of one (spec, app-build scale) point.

    The payload still carries the retired ``push_timeout`` and
    ``pop_timeout`` at their constant 100,000, so every stored key,
    campaign id and trace file name stays valid.  The default
    ``bit_flip`` fault model is excluded — it is the process every
    pre-registry run used, so omitting it keeps every existing key (and
    entry) valid; non-default models key on their canonical spec string.
    """
    payload = dataclasses.asdict(spec)
    payload.update(_RETIRED_TIMEOUTS)
    if payload.get("fault_model") == "bit_flip":
        del payload["fault_model"]
    payload["protection"] = spec.protection.value
    payload["scale"] = repr(float(scale))
    payload["version"] = CACHE_VERSION
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def record_to_dict(record: RunRecord) -> dict:
    data = dataclasses.asdict(record)
    data["protection"] = record.protection.value
    return data


def record_from_dict(data: dict) -> RunRecord:
    fields = dict(data)
    fields["protection"] = ProtectionLevel(fields["protection"])
    return RunRecord(**fields)


def spec_to_dict(spec) -> dict:
    """JSON-safe document of a :class:`~repro.experiments.parallel.RunSpec`."""
    data = dataclasses.asdict(spec)
    data["protection"] = spec.protection.value
    return data


def spec_from_dict(data: dict):
    """Inverse of :func:`spec_to_dict`.  A 3.x document's retired fields
    are dropped; any other unknown key is an error."""
    from repro.experiments.parallel import RunSpec

    fields = {k: v for k, v in data.items() if k not in _RETIRED_FIELDS}
    fields["protection"] = ProtectionLevel(fields["protection"])
    return RunSpec(**fields)

