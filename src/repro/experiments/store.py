"""RunStore: the SQLite-backed result cache and system of record.

Every completed sweep point lives in one WAL-mode SQLite database — the
only place results are looked up and persisted — holding:

``runs``
    One row per completed point, keyed by the
    :func:`~repro.experiments.cache.spec_key` content hash, storing the
    serialized :class:`~repro.experiments.runner.RunRecord` plus
    provenance — engine options, fault model, ``git describe``, wall
    time, writer pid.
``failures``
    Structured :class:`~repro.experiments.parallel.FailureRecord` rows
    from fault-tolerant sweeps (a later successful run supersedes them;
    :meth:`RunStore.gc` prunes the superseded rows).
``campaigns`` / ``campaign_specs``
    Resumable jobs: a campaign freezes its ordered spec grid once, and
    done/failed/pending status is *derived* from the ``runs`` and
    ``failures`` tables by key — so an interrupted or crashed campaign
    restarts exactly where it stopped, at any ``--jobs`` value.

Concurrency: the database is opened in WAL mode with a generous busy
timeout, connections are per-thread, and every write is a single
transaction — many writer processes (or threads) can share one store
without ``database is locked`` failures.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.experiments.cache import (
    record_from_dict,
    record_to_dict,
    spec_from_dict,
    spec_key,
    spec_to_dict,
)
from repro.experiments.runner import RunRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import FailureRecord, RunSpec

#: Bump when the table layout changes incompatibly; a store written by a
#: newer schema is rejected with an error naming both versions.
STORE_SCHEMA_VERSION = 1

DEFAULT_STORE_PATH = ".repro_store.sqlite"

ENV_STORE_PATH = "REPRO_STORE"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    key         TEXT PRIMARY KEY,
    app         TEXT NOT NULL,
    protection  TEXT NOT NULL,
    mtbe        REAL,
    seed        INTEGER NOT NULL,
    fault_model TEXT NOT NULL,
    scale       TEXT NOT NULL,
    spec        TEXT NOT NULL,
    record      TEXT NOT NULL,
    provenance  TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_grid ON runs (app, protection, mtbe, seed);
CREATE TABLE IF NOT EXISTS failures (
    id       INTEGER PRIMARY KEY AUTOINCREMENT,
    key      TEXT NOT NULL,
    campaign TEXT,
    app      TEXT NOT NULL,
    seed     INTEGER NOT NULL,
    failure  TEXT NOT NULL,
    message  TEXT NOT NULL,
    attempts INTEGER NOT NULL,
    spec     TEXT NOT NULL,
    written_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS failures_key ON failures (key);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign   TEXT PRIMARY KEY,
    app        TEXT NOT NULL,
    metric     TEXT NOT NULL,
    scale      TEXT NOT NULL,
    options    TEXT NOT NULL,
    total      INTEGER NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_specs (
    campaign TEXT NOT NULL,
    position INTEGER NOT NULL,
    key      TEXT NOT NULL,
    spec     TEXT NOT NULL,
    PRIMARY KEY (campaign, position)
);
CREATE INDEX IF NOT EXISTS campaign_keys ON campaign_specs (campaign, key);
"""

_GIT_DESCRIBE: str | None = None
_GIT_DESCRIBED = False


def _git_describe() -> str | None:
    """``git describe --always --dirty`` of the working directory, cached
    per process (provenance only — never part of any key or report)."""
    global _GIT_DESCRIBE, _GIT_DESCRIBED
    if not _GIT_DESCRIBED:
        _GIT_DESCRIBED = True
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                capture_output=True,
                text=True,
                timeout=10,
            )
            _GIT_DESCRIBE = out.stdout.strip() or None if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            _GIT_DESCRIBE = None
    return _GIT_DESCRIBE


def _enable_wal(conn: sqlite3.Connection, timeout: float = 60.0) -> None:
    """Switch *conn*'s database to WAL mode (the mode persists in the file).

    Connections that switch a fresh file at the same moment each hold a
    shared lock and want an exclusive one; SQLite breaks that deadlock by
    failing one at once with "database is locked" instead of waiting in
    the busy handler.  The loser retries until the winner's switch lands.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def _sweep_trace_dir(root: Path, live: frozenset[str]) -> tuple[int, int]:
    """Remove ``*.tmp`` write stragglers anywhere under *root*,
    ``<key>.jsonl`` traces whose key is not in *live*, and subdirectories
    left empty.  Returns ``(tmp_removed, traces_removed)``."""
    tmp_removed = traces_removed = 0
    if not root.is_dir():
        return tmp_removed, traces_removed
    for straggler in root.glob("**/*.tmp"):
        try:
            straggler.unlink()
            tmp_removed += 1
        except OSError:
            pass
    for trace in root.glob("**/*.jsonl"):
        if trace.stem in live:
            continue
        try:
            trace.unlink()
            traces_removed += 1
        except OSError:
            pass
    for shard in root.iterdir():
        if shard.is_dir():
            try:
                shard.rmdir()
            except OSError:
                pass
    return tmp_removed, traces_removed


def derive_campaign_id(specs: Sequence["RunSpec"], scale: float) -> str:
    """Deterministic campaign id of a grid: same specs + scale -> same id.

    Re-running an identical command line therefore lands in the same
    campaign row and resumes it, with no id bookkeeping by the user.
    """
    digest = hashlib.sha256()
    digest.update(repr(float(scale)).encode())
    for spec in specs:
        digest.update(spec.content_key(scale).encode())
    return f"c-{digest.hexdigest()[:12]}"


@dataclass(frozen=True)
class StoredRun:
    """One queryable row of the ``runs`` table."""

    key: str
    spec: "RunSpec"
    scale: float
    record: RunRecord
    provenance: dict


@dataclass(frozen=True)
class CampaignStatus:
    """Derived progress of one campaign: which grid positions are done
    (a ``runs`` row exists for their key), failed (latest word is a
    ``failures`` row), or still pending."""

    campaign: str
    app: str
    metric: str
    scale: float
    options: dict
    specs: "tuple[RunSpec, ...]"
    keys: tuple[str, ...]
    done: frozenset[int]
    failed: frozenset[int]

    @property
    def total(self) -> int:
        return len(self.specs)

    @property
    def pending(self) -> tuple[int, ...]:
        return tuple(
            i for i in range(self.total) if i not in self.done and i not in self.failed
        )

    def summary(self) -> str:
        return (
            f"{self.campaign}: {len(self.done)}/{self.total} done, "
            f"{len(self.failed)} failed, {len(self.pending)} pending"
        )


@dataclass
class StoreStats:
    """Snapshot of a store's contents (``repro store stats``)."""

    path: Path
    runs: int = 0
    failures: int = 0
    campaigns: int = 0
    by_app: dict = field(default_factory=dict)
    size_bytes: int = 0


@dataclass(frozen=True)
class GcStats:
    """What one :meth:`RunStore.gc` pass collected."""

    superseded_failures: int
    tmp_stragglers: int
    dangling_traces: int

    def summary(self) -> str:
        return (
            f"pruned {self.superseded_failures} superseded failure(s), "
            f"{self.tmp_stragglers} .tmp straggler(s), "
            f"{self.dangling_traces} dangling trace(s)"
        )


class RunStore:
    """Concurrent-safe, queryable result database keyed by ``spec_key``.

    ``path``
        Database file (default ``.repro_store.sqlite``, or the
        ``REPRO_STORE`` environment variable).  Parent directories are
        created on demand.

    One instance may be shared across threads (connections are
    per-thread); across processes, point every writer at the same path —
    WAL mode plus a busy timeout serializes their transactions.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        if path is None:
            path = os.environ.get(ENV_STORE_PATH) or DEFAULT_STORE_PATH
        self.path = Path(path)
        #: Extra provenance merged into every stored row (engine options,
        #: campaign id, ...); set by the engine via :meth:`set_context`.
        self._context: dict = {}
        self._local = threading.local()
        self._init_schema()

    @classmethod
    def coerce(
        cls, store: "RunStore | str | Path | bool | None"
    ) -> "RunStore | None":
        """Normalize a user-facing store option: ``None``/``False`` means
        no store, ``True`` the default path, a path selects a file, a
        ready :class:`RunStore` passes through."""
        if store is None or store is False:
            return None
        if store is True:
            return cls()
        if isinstance(store, cls):
            return store
        return cls(store)

    # -- connection plumbing ---------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=60.0)
            _enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=60000")
            self._local.conn = conn
        return conn

    def _init_schema(self) -> None:
        conn = self._conn()
        with conn:
            conn.executescript(_SCHEMA)
            # OR IGNORE: concurrent openers of a fresh database both reach
            # this insert; first writer wins, the version check below then
            # reads whatever landed.
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) "
                "VALUES ('schema_version', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )
            row = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if int(row[0]) > STORE_SCHEMA_VERSION:
                raise ValueError(
                    f"store {self.path} has schema version {row[0]}; this "
                    f"reader supports up to {STORE_SCHEMA_VERSION}"
                )

    def close(self) -> None:
        """Close this thread's connection (other threads' stay open)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def set_context(self, **context) -> None:
        """Merge engine-level provenance (options, campaign, jobs) into
        every subsequently stored row."""
        self._context.update(context)

    # -- runs ------------------------------------------------------------------

    def load(self, key: str) -> RunRecord | None:
        """The stored record for *key*, or ``None`` (a corrupt row misses)."""
        row = self._conn().execute(
            "SELECT record FROM runs WHERE key=?", (key,)
        ).fetchone()
        if row is None:
            return None
        try:
            return record_from_dict(json.loads(row[0]))
        except (ValueError, KeyError, TypeError):
            return None

    def store(
        self,
        key: str,
        spec: "RunSpec",
        scale: float,
        record: RunRecord,
        provenance: dict | None = None,
    ) -> None:
        """Persist one completed record (idempotent: last write wins for a
        key, and identical reruns write identical records by the
        determinism contract)."""
        prov = {
            "written_at": time.time(),
            "worker": os.getpid(),
            "git": _git_describe(),
            **self._context,
            **(provenance or {}),
        }
        conn = self._conn()
        with conn:
            conn.execute(
                "INSERT OR REPLACE INTO runs "
                "(key, app, protection, mtbe, seed, fault_model, scale, "
                " spec, record, provenance) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    spec.app,
                    spec.protection.value,
                    spec.mtbe,
                    spec.seed,
                    spec.fault_model,
                    repr(float(scale)),
                    json.dumps(spec_to_dict(spec), sort_keys=True),
                    json.dumps(record_to_dict(record), sort_keys=True),
                    json.dumps(prov, sort_keys=True),
                ),
            )

    def __len__(self) -> int:
        return self._conn().execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    def __contains__(self, key: str) -> bool:
        return (
            self._conn()
            .execute("SELECT 1 FROM runs WHERE key=?", (key,))
            .fetchone()
            is not None
        )

    def keys(self) -> frozenset[str]:
        return frozenset(
            row[0] for row in self._conn().execute("SELECT key FROM runs")
        )

    # -- failures --------------------------------------------------------------

    def record_failure(
        self, failure: "FailureRecord", campaign: str | None = None, scale: float = 1.0
    ) -> None:
        """File one exhausted-retry failure (the sweep engine calls this
        from :meth:`ParallelRunner._dispose`)."""
        conn = self._conn()
        with conn:
            conn.execute(
                "INSERT INTO failures "
                "(key, campaign, app, seed, failure, message, attempts, "
                " spec, written_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    failure.spec.content_key(scale),
                    campaign,
                    failure.spec.app,
                    failure.spec.seed,
                    failure.failure,
                    failure.message,
                    failure.attempts,
                    json.dumps(spec_to_dict(failure.spec), sort_keys=True),
                    time.time(),
                ),
            )

    def failure_for(self, key: str) -> "FailureRecord | None":
        """The latest failure filed for *key*, or ``None``."""
        from repro.experiments.parallel import FailureRecord

        row = self._conn().execute(
            "SELECT spec, failure, message, attempts FROM failures "
            "WHERE key=? ORDER BY id DESC LIMIT 1",
            (key,),
        ).fetchone()
        if row is None:
            return None
        return FailureRecord(
            index=-1,
            spec=spec_from_dict(json.loads(row[0])),
            failure=row[1],
            message=row[2],
            attempts=row[3],
        )

    # -- campaigns -------------------------------------------------------------

    def begin_campaign(
        self,
        campaign: str,
        specs: Sequence["RunSpec"],
        scale: float,
        app: str | None = None,
        metric: str = "snr",
        options: dict | None = None,
    ) -> None:
        """Register a campaign's frozen grid (idempotent).

        A new campaign writes one ``campaigns`` row plus its ordered
        ``campaign_specs``.  Re-beginning an existing campaign verifies
        the grid matches key-for-key — the original rows (and options)
        are kept, which is exactly what resume wants — and raises
        ``ValueError`` on a mismatch rather than silently mixing grids.
        Two processes beginning the same new campaign concurrently
        serialize on the database write lock; the loser sees the
        winner's row and resumes idempotently.  :meth:`campaign` reads
        the derived status back.
        """
        specs = list(specs)
        keys = [spec.content_key(scale) for spec in specs]
        conn = self._conn()
        # BEGIN IMMEDIATE takes the write lock before the existence
        # check, making check-then-insert one atomic step across
        # processes: a concurrent beginner of the same campaign blocks
        # here (busy_timeout) until the winner commits, then sees the
        # row and lands on the verification path instead of racing the
        # INSERT into an IntegrityError.
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT total, scale FROM campaigns WHERE campaign=?", (campaign,)
            ).fetchone()
            if row is not None:
                stored = [
                    r[0]
                    for r in conn.execute(
                        "SELECT key FROM campaign_specs WHERE campaign=? "
                        "ORDER BY position",
                        (campaign,),
                    )
                ]
                if stored != keys or row[1] != repr(float(scale)):
                    raise ValueError(
                        f"campaign {campaign!r} already exists with a "
                        f"different grid ({row[0]} specs at scale {row[1]}); "
                        "pick a new campaign id for a new grid"
                    )
            else:
                conn.execute(
                    "INSERT INTO campaigns "
                    "(campaign, app, metric, scale, options, total, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        campaign,
                        app or (specs[0].app if specs else "?"),
                        metric,
                        repr(float(scale)),
                        json.dumps(options or {}, sort_keys=True),
                        len(specs),
                        time.time(),
                    ),
                )
                conn.executemany(
                    "INSERT INTO campaign_specs (campaign, position, key, spec) "
                    "VALUES (?, ?, ?, ?)",
                    [
                        (
                            campaign,
                            position,
                            key,
                            json.dumps(spec_to_dict(spec), sort_keys=True),
                        )
                        for position, (key, spec) in enumerate(zip(keys, specs))
                    ],
                )
        except BaseException:
            conn.rollback()
            raise
        conn.commit()

    def campaign(self, campaign: str) -> CampaignStatus:
        """Load one campaign's grid and derived done/failed/pending state.

        Raises ``ValueError`` (naming the known ids) for an unknown
        campaign.
        """
        conn = self._conn()
        row = conn.execute(
            "SELECT app, metric, scale, options FROM campaigns WHERE campaign=?",
            (campaign,),
        ).fetchone()
        if row is None:
            known = ", ".join(self.campaign_ids()) or "none"
            raise ValueError(
                f"unknown campaign {campaign!r} in {self.path} (known: {known})"
            )
        entries = conn.execute(
            "SELECT position, key, spec FROM campaign_specs "
            "WHERE campaign=? ORDER BY position",
            (campaign,),
        ).fetchall()
        keys = tuple(entry[1] for entry in entries)
        specs = tuple(spec_from_dict(json.loads(entry[2])) for entry in entries)
        done = frozenset(
            i
            for i, key in enumerate(keys)
            if conn.execute("SELECT 1 FROM runs WHERE key=?", (key,)).fetchone()
        )
        failed = frozenset(
            i
            for i, key in enumerate(keys)
            if i not in done
            and conn.execute(
                "SELECT 1 FROM failures WHERE key=?", (key,)
            ).fetchone()
        )
        return CampaignStatus(
            campaign=campaign,
            app=row[0],
            metric=row[1],
            scale=float(row[2]),
            options=json.loads(row[3]),
            specs=specs,
            keys=keys,
            done=done,
            failed=failed,
        )

    def campaign_runs(self, campaign: str) -> list[tuple[int, StoredRun]]:
        """Completed rows of one campaign, in grid-position order.

        Joins the campaign's spec grid against ``runs`` and returns
        ``(position, StoredRun)`` pairs for every position that has a
        stored result.  The provenance dicts carry the execution-side
        facts (``wall_seconds``, ``written_at``, ``worker``, ``jobs``,
        ``campaign``) that campaign health views aggregate.  Raises
        ``ValueError`` for an unknown campaign.
        """
        conn = self._conn()
        if (
            conn.execute(
                "SELECT 1 FROM campaigns WHERE campaign=?", (campaign,)
            ).fetchone()
            is None
        ):
            known = ", ".join(self.campaign_ids()) or "none"
            raise ValueError(
                f"unknown campaign {campaign!r} in {self.path} (known: {known})"
            )
        rows = conn.execute(
            "SELECT cs.position, r.key, r.spec, r.scale, r.record, r.provenance "
            "FROM campaign_specs cs JOIN runs r ON r.key = cs.key "
            "WHERE cs.campaign=? ORDER BY cs.position",
            (campaign,),
        ).fetchall()
        return [
            (
                int(row[0]),
                StoredRun(
                    key=row[1],
                    spec=spec_from_dict(json.loads(row[2])),
                    scale=float(row[3]),
                    record=record_from_dict(json.loads(row[4])),
                    provenance=json.loads(row[5]),
                ),
            )
            for row in rows
        ]

    def campaign_ids(self) -> tuple[str, ...]:
        return tuple(
            row[0]
            for row in self._conn().execute(
                "SELECT campaign FROM campaigns ORDER BY created_at, campaign"
            )
        )

    # -- query / stats / maintenance -------------------------------------------

    def query(
        self,
        app: str | None = None,
        protection: str | None = None,
        mtbe: float | None = None,
        seed: int | None = None,
        fault_model: str | None = None,
        limit: int | None = None,
    ) -> list[StoredRun]:
        """Rows matching every given axis value, in stable (app,
        protection, mtbe, seed, key) order."""
        clauses, params = [], []
        for column, value in (
            ("app", app),
            ("protection", protection),
            ("mtbe", mtbe),
            ("seed", seed),
            ("fault_model", fault_model),
        ):
            if value is not None:
                clauses.append(f"{column}=?")
                params.append(value)
        sql = "SELECT key, spec, scale, record, provenance FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY app, protection, mtbe, seed, key"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        rows = self._conn().execute(sql, params).fetchall()
        return [
            StoredRun(
                key=row[0],
                spec=spec_from_dict(json.loads(row[1])),
                scale=float(row[2]),
                record=record_from_dict(json.loads(row[3])),
                provenance=json.loads(row[4]),
            )
            for row in rows
        ]

    def stats(self) -> StoreStats:
        conn = self._conn()
        stats = StoreStats(path=self.path)
        stats.runs = conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
        stats.failures = conn.execute("SELECT COUNT(*) FROM failures").fetchone()[0]
        stats.campaigns = conn.execute(
            "SELECT COUNT(*) FROM campaigns"
        ).fetchone()[0]
        stats.by_app = dict(
            conn.execute(
                "SELECT app, COUNT(*) FROM runs GROUP BY app ORDER BY app"
            ).fetchall()
        )
        try:
            stats.size_bytes = self.path.stat().st_size
        except OSError:
            pass
        return stats

    def export(self, stream) -> int:
        """Dump every run row as one JSON object per line; returns the
        row count (for external tooling)."""
        count = 0
        for row in self.query():
            stream.write(
                json.dumps(
                    {
                        "key": row.key,
                        "spec": spec_to_dict(row.spec),
                        "scale": repr(row.scale),
                        "record": record_to_dict(row.record),
                        "provenance": row.provenance,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            count += 1
        return count

    def gc(self, trace_dirs: Iterable[str | Path] = ()) -> GcStats:
        """Collect debris: failure rows superseded by a later successful
        run and — in the given trace directories — ``*.tmp`` write
        stragglers plus ``<key>.jsonl`` traces whose key the store no
        longer knows.  Then the database is vacuumed.
        """
        conn = self._conn()
        with conn:
            superseded = conn.execute(
                "DELETE FROM failures WHERE key IN (SELECT key FROM runs)"
            ).rowcount
        tmp = traces = 0
        live = self.keys()
        for directory in trace_dirs:
            swept_tmp, swept_traces = _sweep_trace_dir(Path(directory), live)
            tmp += swept_tmp
            traces += swept_traces
        conn.execute("VACUUM")
        return GcStats(
            superseded_failures=superseded,
            tmp_stragglers=tmp,
            dangling_traces=traces,
        )


__all__ = [
    "CampaignStatus",
    "DEFAULT_STORE_PATH",
    "ENV_STORE_PATH",
    "GcStats",
    "RunStore",
    "STORE_SCHEMA_VERSION",
    "StoreStats",
    "StoredRun",
    "derive_campaign_id",
    "spec_key",
]
