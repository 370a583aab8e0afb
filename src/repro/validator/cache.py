"""The content-addressed validation cache and its on-disk proof stores.

:class:`ValidationCache` memoizes validation verdicts by function-pair
*content*: the key is ``(original-hash, optimized-hash, rule-groups,
matcher, engine, max-iterations, recursion-limit)`` — everything a verdict
can depend on.  Two different functions with identical bodies share an
entry, so batch validation of a corpus full of near-duplicate traffic only
pays for the distinct pairs; stepwise validation feeds each adjacent
checkpoint pair through the same keying, so repeated single-pass effects
are also validated once.

On top of the in-memory map this module adds *persistent* proof stores
behind a pluggable backend seam:

``json`` (:class:`JsonStore`)
    The historical whole-file format: every entry is loaded eagerly at
    construction and :meth:`ValidationCache.save` rewrites the file
    atomically (temp file + rename, under an exclusive ``flock`` so
    concurrent savers merge instead of clobbering each other).

``sqlite`` (:class:`SqliteStore`)
    An incremental store for caches too large to (de)serialize per run:
    WAL-mode SQLite, entries faulted in **lazily** as :meth:`get` /
    :meth:`peek` ask for them, verdicts upserted in small batches as they
    arrive, and the ``max_bytes`` budget enforced by a least-recently-hit
    ``DELETE`` executed inside the database.  A one-shot migration from
    the JSON format is provided by :func:`migrate_json_to_sqlite` (also
    ``python -m repro.validator.cache migrate <dir>``).

Because keys are content hashes, a store survives across processes,
machines and repository checkouts: CI's warm run and repeated corpus
sweeps skip every previously proved pair.  Both loaders are tolerant by
design — a corrupted file, an unknown schema version or a malformed entry
is *ignored* (the cache starts cold), and any store fault mid-run degrades
to the in-memory tier: losing a cache can only cost time, trusting a
broken one could cost correctness.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

try:  # POSIX only; on platforms without flock JSON saves stay unlocked.
    import fcntl
except ImportError:  # pragma: no cover - exercised only off-POSIX
    fcntl = None  # type: ignore[assignment]

from ..analysis.manager import CHECKPOINT_FINGERPRINTS
from ..ir.module import Function
from . import faults
from .config import CACHE_BACKENDS, ValidatorConfig
from .validate import UNCACHEABLE_REASONS, ValidationResult

#: Cache key: content hashes of both functions plus everything about the
#: configuration that can change a verdict.
CacheKey = Tuple[str, str, Tuple[str, ...], str, str, int, int]

#: On-disk schema version of the JSON format.  Bump whenever the key
#: derivation or the stored result format changes meaning; files with any
#: other version are ignored.
CACHE_SCHEMA = 1

#: SQLite schema version, kept in ``PRAGMA user_version``.  A mismatching
#: store is dropped and recreated cold, mirroring the JSON loader.
SQLITE_SCHEMA = 1

#: File name used when a JSON cache is given a directory instead of a file.
CACHE_FILE_NAME = "validation_cache.json"

#: File name used when a SQLite cache is given a directory.
SQLITE_FILE_NAME = "validation_cache.sqlite"

#: Address prefix selecting the served proof store as a cache "path":
#: ``remote://HOST:PORT`` points :class:`RemoteStore` at a running
#: :class:`~repro.validator.scheduler.remote.StealCoordinator`.
REMOTE_PREFIX = "remote://"

_SQLITE_SUFFIXES = (".sqlite", ".db")

#: Dirty entries buffered before the SQLite store flushes them in one
#: incremental upsert batch (verdicts stream to disk as they arrive
#: instead of in a single end-of-run rewrite).
_SQLITE_FLUSH_INTERVAL = 64

#: The :class:`ValidationResult` fields a cache entry round-trips.
_RESULT_FIELDS = ("function_name", "is_success", "reason", "elapsed",
                  "graph_nodes", "stats", "detail")


def _resolve_cache_path(path: Union[str, os.PathLike],
                        backend: str = "auto") -> Tuple[Path, str]:
    """Resolve a user-supplied cache location to ``(file path, backend)``.

    Explicit file suffixes select their format — a ``.json`` path is a
    JSON store, a ``.sqlite`` / ``.db`` path a SQLite one — regardless of
    ``backend``.  Anything else is treated as a *cache directory* (created
    on first write) holding the chosen backend's default file name; under
    ``"auto"`` an existing SQLite store (e.g. one produced by
    :func:`migrate_json_to_sqlite`) is preferred and the historical JSON
    file is the fallback, so seeds and existing workflows keep their
    behavior until a store is explicitly migrated.
    """
    resolved = Path(path)
    if resolved.suffix == ".json":
        return resolved, "json"
    if resolved.suffix in _SQLITE_SUFFIXES:
        return resolved, "sqlite"
    if backend == "json":
        return resolved / CACHE_FILE_NAME, "json"
    if backend == "sqlite":
        return resolved / SQLITE_FILE_NAME, "sqlite"
    sqlite_path = resolved / SQLITE_FILE_NAME
    if sqlite_path.exists():
        return sqlite_path, "sqlite"
    return resolved / CACHE_FILE_NAME, "json"


def _encode_key(key: CacheKey) -> str:
    """Serialize a cache key to a canonical JSON string."""
    fp_before, fp_after, groups, matcher, engine, max_iter, rec_limit = key
    return json.dumps(
        [fp_before, fp_after, list(groups), matcher, engine, max_iter, rec_limit],
        separators=(",", ":"))


def _decode_key(text: str) -> CacheKey:
    """Parse a serialized cache key; raises on any malformation."""
    fp_before, fp_after, groups, matcher, engine, max_iter, rec_limit = json.loads(text)
    if not (isinstance(fp_before, str) and isinstance(fp_after, str)
            and isinstance(groups, list) and isinstance(matcher, str)
            and isinstance(engine, str)):
        raise ValueError(f"malformed cache key {text!r}")
    return (fp_before, fp_after, tuple(str(g) for g in groups),
            matcher, engine, int(max_iter), int(rec_limit))


def _encode_result(result: ValidationResult) -> str:
    """Serialize the round-tripped fields of one result to JSON."""
    payload = {name: value for name, value in asdict(result).items()
               if name in _RESULT_FIELDS}
    return json.dumps(payload, sort_keys=True)


def _decode_result(payload: Dict[str, object]) -> ValidationResult:
    """Rebuild a :class:`ValidationResult` from its JSON dict; raises if bad."""
    kwargs = {name: payload[name] for name in _RESULT_FIELDS}
    result = ValidationResult(
        function_name=str(kwargs["function_name"]),
        is_success=bool(kwargs["is_success"]),
        reason=str(kwargs["reason"]),
        elapsed=float(kwargs["elapsed"]),
        graph_nodes=int(kwargs["graph_nodes"]),
        stats={str(k): int(v) for k, v in dict(kwargs["stats"]).items()},
        detail=str(kwargs["detail"]),
    )
    return result


class sidecar_flock:
    """Exclusive ``flock`` on a store's sidecar ``<name>.lock`` file.

    The one place the on-disk locking protocol lives: :class:`JsonStore`
    holds it across its read-merge-rewrite save sequence, and the
    coordinator-side :class:`~repro.validator.scheduler.remote.ServedStore`
    holds it while snapshotting a JSON store it is about to serve, so a
    concurrent saver and a coordinator never interleave a partial merge.
    The lock file sits beside the store and is **never deleted**:
    unlinking a lock file another process may be about to open would
    reintroduce exactly the race the lock exists to close.  On platforms
    without :mod:`fcntl` (or when the sidecar cannot be opened) the lock
    degrades to a no-op — :attr:`held` says which happened.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)
        self._handle = None

    @property
    def held(self) -> bool:
        """Did :meth:`__enter__` actually take the lock?"""
        return self._handle is not None

    def __enter__(self) -> "sidecar_flock":
        if fcntl is None:
            return self
        try:
            handle = open(self.path.with_name(self.path.name + ".lock"), "a+")
        except OSError:
            return self
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        except OSError:
            handle.close()
            return self
        self._handle = handle
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            finally:
                handle.close()
        return False


class JsonStore:
    """The whole-file JSON proof store (the historical backend).

    Eager: every entry is parsed at :meth:`load` time and :meth:`save`
    rewrites the complete file.  The save sequence — read the file back,
    merge our entries over it, evict to budget, write a temp file, rename
    it into place — runs under an exclusive ``flock`` on a sibling
    ``.lock`` file, so two processes saving the same path serialize their
    merges instead of silently dropping each other's entries.  (The
    rename alone made a save atomic; the lock makes concurrent saves
    *lossless*.)  On platforms without :mod:`fcntl` the lock degrades to
    the historical unlocked behavior.
    """

    backend = "json"
    #: Eager stores materialize everything at open; the cache never
    #: faults entries from them lazily.
    eager = True

    def __init__(self, path: Path,
                 fault_plan: Optional[faults.FaultPlan] = None) -> None:
        self.path = path
        self.fault_plan = fault_plan
        #: Entries decoded on demand (always 0 for the eager backend).
        self.lazy_loads = 0
        #: Completed file writes.
        self.flushes = 0
        #: Store faults survived by degrading: whole-file saves that
        #: failed (the entries stay dirty in memory for the next save).
        self.errors = 0
        #: Flush attempts repeated after a transient failure (always 0
        #: here: the whole-file write has no retryable failure mode).
        self.retries = 0
        #: Serialized bytes read from / written to the file.
        self.bytes_read = 0
        self.bytes_written = 0

    def load(self) -> Dict[CacheKey, ValidationResult]:
        """Read every entry, tolerating all the ways the file can be bad."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return {}
        self.bytes_read += len(text)
        return _parse_cache_text(text)

    def fetch(self, key: CacheKey) -> Optional[ValidationResult]:
        """Eager backend: everything was loaded up front, nothing to fault."""
        return None

    def save(self, entries: Dict[CacheKey, ValidationResult],
             hit_stamp: Dict[CacheKey, int], max_bytes: int,
             ) -> Tuple[Dict[CacheKey, ValidationResult], int, int]:
        """Locked merge-and-rewrite; returns ``(merged, stored, evicted)``."""
        faults.maybe_fire(self.fault_plan, "cache-flush", detail=self.path.name)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with sidecar_flock(self.path):
            merged = self.load()
            merged.update(entries)
            evicted = 0
            if max_bytes:
                evicted = _evict_to_budget(merged, hit_stamp, max_bytes)
            payload = {
                "schema": CACHE_SCHEMA,
                "entries": {_encode_key(key): {name: value
                                               for name, value in asdict(result).items()
                                               if name in _RESULT_FIELDS}
                            for key, result in merged.items()},
            }
            text = json.dumps(payload, sort_keys=True) + "\n"
            fd, temp_name = tempfile.mkstemp(dir=str(self.path.parent),
                                             prefix=self.path.name, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(temp_name, self.path)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
            self.flushes += 1
            self.bytes_written += len(text)
            return merged, len(merged), evicted

    def close(self) -> None:
        pass


def _is_locked(error: BaseException) -> bool:
    """Is this the transient writer-contention error sqlite raises?

    Only ``database is locked`` / ``database is busy`` are worth a
    backoff — the lock holder is another flush and will be gone shortly.
    Every other store fault (corruption, full disk, schema trouble) is
    persistent and must degrade immediately.
    """
    return (isinstance(error, sqlite3.OperationalError)
            and ("locked" in str(error).lower()
                 or "busy" in str(error).lower()))


class SqliteStore:
    """Incremental WAL-mode SQLite proof store.

    Lazy: opening the store reads *nothing* but a row count; entries are
    faulted in one at a time as the cache asks for them, and dirty
    verdicts are upserted in small batches as they arrive.  WAL mode
    keeps concurrent readers unblocked while one writer commits, and a
    busy timeout serializes concurrent writers, so several sweeps can
    share one store.  The ``max_bytes`` budget is enforced *inside* the
    database: a windowed ``DELETE`` keeps the most-recently-hit entries
    whose cumulative logical size fits (the same per-entry footprint
    measure as the JSON budget, without the file envelope).

    Every fault — corruption discovered mid-run, a locked database that
    outlives the busy timeout, a full disk — permanently degrades the
    store to a no-op (``errors`` counts them) and the cache continues on
    its in-memory tier with identical verdicts and an unchanged hit/miss
    ledger.  A store that is *already* corrupt at open is discarded and
    recreated cold instead, mirroring the JSON loader's tolerance.
    """

    backend = "sqlite"
    eager = False

    def __init__(self, path: Path,
                 fault_plan: Optional[faults.FaultPlan] = None) -> None:
        self.path = path
        self.fault_plan = fault_plan
        self.lazy_loads = 0
        self.flushes = 0
        self.errors = 0
        #: Flush attempts repeated after a transient ``database is
        #: locked`` (the lock holder is another flush, gone within
        #: milliseconds — backing off briefly beats degrading).
        self.retries = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._conn: Optional[sqlite3.Connection] = None
        self._broken = False

    # -- connection management --------------------------------------------
    def _connection(self) -> Optional[sqlite3.Connection]:
        if self._broken:
            return None
        if self._conn is None:
            try:
                self._conn = self._open()
            except (sqlite3.Error, OSError, ValueError):
                # Pre-existing corruption: discard and start cold, like
                # the JSON loader.  If even a fresh store cannot be
                # opened, degrade to the in-memory tier.
                try:
                    self._discard_files()
                    self._conn = self._open()
                except (sqlite3.Error, OSError, ValueError):
                    self._give_up()
        return self._conn

    def _open(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=10.0)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            if version != SQLITE_SCHEMA:
                if version != 0:
                    conn.execute("DROP TABLE IF EXISTS entries")
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS entries ("
                    " key TEXT PRIMARY KEY,"
                    " payload TEXT NOT NULL,"
                    " size INTEGER NOT NULL,"
                    " last_hit INTEGER NOT NULL DEFAULT 0)")
                conn.execute("PRAGMA user_version = %d" % SQLITE_SCHEMA)
                conn.commit()
        except BaseException:
            conn.close()
            raise
        return conn

    def _discard_files(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(str(self.path) + suffix)
            except OSError:
                pass

    def _give_up(self) -> None:
        """Degrade permanently to the in-memory tier (never an error)."""
        self._broken = True
        self.errors += 1
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    # -- store operations --------------------------------------------------
    def entry_count(self) -> int:
        conn = self._connection()
        if conn is None:
            return 0
        try:
            return int(conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0])
        except (sqlite3.Error, OSError):
            self._give_up()
            return 0

    def max_stamp(self) -> int:
        """Largest recency stamp on disk — new stamps continue above it."""
        conn = self._connection()
        if conn is None:
            return 0
        try:
            return int(conn.execute(
                "SELECT COALESCE(MAX(last_hit), 0) FROM entries").fetchone()[0])
        except (sqlite3.Error, OSError):
            self._give_up()
            return 0

    def fetch(self, key: CacheKey) -> Optional[ValidationResult]:
        """Fault one entry in from disk, or ``None`` (miss / degraded)."""
        conn = self._connection()
        if conn is None:
            return None
        try:
            row = conn.execute("SELECT payload FROM entries WHERE key = ?",
                               (_encode_key(key),)).fetchone()
        except (sqlite3.Error, OSError):
            self._give_up()
            return None
        if row is None:
            return None
        self.bytes_read += len(row[0])
        try:
            result = _decode_result(json.loads(row[0]))
        except (KeyError, TypeError, ValueError):
            return None  # one malformed entry never poisons the store
        self.lazy_loads += 1
        return result

    def upsert(self, items: Iterable[Tuple[CacheKey, ValidationResult]],
               hit_stamp: Dict[CacheKey, int]) -> int:
        """Incrementally write a batch of entries; returns entries written."""
        conn = self._connection()
        if conn is None:
            return 0
        rows = [(_encode_key(key), _encode_result(result),
                 _entry_size(key, result), hit_stamp.get(key, 0))
                for key, result in items]
        if not rows:
            return 0

        def attempt() -> None:
            faults.maybe_fire(self.fault_plan, "cache-flush",
                              detail=self.path.name)
            try:
                conn.executemany(
                    "INSERT OR REPLACE INTO entries"
                    " (key, payload, size, last_hit) VALUES (?, ?, ?, ?)",
                    rows)
                conn.commit()
            except BaseException:
                # A half-applied batch must not linger in the open
                # transaction across the backoff (or into _give_up).
                try:
                    conn.rollback()
                except sqlite3.Error:
                    pass
                raise

        def count_retry(attempt_number: int, error: BaseException) -> None:
            self.retries += 1

        # Imported here, not at module scope: the scheduler package pulls
        # this module in through its executors, so a top-level import
        # would be circular.  By the first flush both are fully loaded.
        from .scheduler.retry import LOCKED_FLUSH_RETRY, retry_call
        try:
            retry_call(attempt, policy=LOCKED_FLUSH_RETRY,
                       retry_if=_is_locked,
                       seed=getattr(self.fault_plan, "seed", 0),
                       on_retry=count_retry)
        except (sqlite3.Error, OSError):
            self._give_up()
            return 0
        self.flushes += 1
        self.bytes_written += sum(len(row[1]) for row in rows)
        return len(rows)

    def touch(self, hit_stamp: Dict[CacheKey, int]) -> None:
        """Refresh on-disk recency for entries this process consumed."""
        conn = self._connection()
        if conn is None or not hit_stamp:
            return
        rows = [(stamp, _encode_key(key), stamp)
                for key, stamp in hit_stamp.items()]
        try:
            conn.executemany(
                "UPDATE entries SET last_hit = ? WHERE key = ? AND last_hit < ?",
                rows)
            conn.commit()
        except (sqlite3.Error, OSError):
            self._give_up()

    def evict_to_budget(self, max_bytes: int) -> int:
        """Least-recently-hit eviction executed inside the database.

        Keeps the most-recently-hit entries whose cumulative logical
        footprint fits ``max_bytes`` (ties broken by serialized key, so
        eviction is deterministic) and deletes the rest in one windowed
        ``DELETE``.  Returns the number of entries dropped.
        """
        conn = self._connection()
        if conn is None:
            return 0
        try:
            total = int(conn.execute(
                "SELECT COALESCE(SUM(size), 0) FROM entries").fetchone()[0])
            if total <= max_bytes:
                return 0
            cursor = conn.execute(
                "DELETE FROM entries WHERE key IN ("
                " SELECT key FROM ("
                "  SELECT key, SUM(size) OVER ("
                "   ORDER BY last_hit DESC, key DESC"
                "   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS running"
                "  FROM entries)"
                " WHERE running > ?)", (max(0, max_bytes),))
            conn.commit()
            return cursor.rowcount
        except (sqlite3.Error, OSError):
            self._give_up()
            return 0


class RemoteStore:
    """Proof-store client proxying to a coordinator's served store.

    The distributed counterpart of :class:`SqliteStore`: remote workers
    (and warm parent runs) point a cache at ``remote://HOST:PORT`` and
    consult the coordinator's *one* shared store instead of shipping
    cache state inside work payloads.  Traffic is batched — the planner
    calls :meth:`prefetch` once per work plan, so a whole batch's keys
    cost a single get round trip (counted in ``rpcs`` /
    ``batched_gets``) — and writes stay write-behind: the cache buffers
    dirty entries exactly as it does for sqlite and :meth:`upsert`
    ships each flush batch as one ``put`` RPC, retrying transient
    server-side ``database is locked`` replies under the shared
    :data:`~repro.validator.scheduler.retry.LOCKED_FLUSH_RETRY` policy.

    Degradation mirrors the disk stores: a rejected handshake or a
    twice-failed round trip permanently drops to the in-memory tier
    (``errors`` counts it) — losing the shared store can only cost
    re-validation, never correctness.  A coordinator restart between
    batches is *not* a degradation: every RPC retries one transparent
    reconnect first.
    """

    backend = "remote"
    eager = False

    def __init__(self, address: str,
                 fault_plan: Optional[faults.FaultPlan] = None) -> None:
        # Deferred: the scheduler package imports this module through
        # its executors, so a top-level import would be circular.
        from .scheduler import transport
        self._transport = transport
        if address.startswith(REMOTE_PREFIX):
            address = address[len(REMOTE_PREFIX):]
        self.address = address
        self.host, self.port = transport.split_address(address)
        self.fault_plan = fault_plan
        self.lazy_loads = 0
        self.flushes = 0
        self.errors = 0
        self.retries = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Round trips to the coordinator, all operations.
        self.rpcs = 0
        #: Round trips that were (batched) entry gets.
        self.get_rpcs = 0
        #: Keys requested through batched get round trips.
        self.batched_gets = 0
        self._sock: Optional[socket.socket] = None
        self._broken = False
        #: Keys the coordinator answered "absent" for: a later fetch of
        #: one is a local miss, never another round trip (the batch
        #: already asked).  A successful put clears its key.
        self._absent: set = set()

    # -- plumbing ----------------------------------------------------------
    def _connect(self) -> socket.socket:
        transport = self._transport
        sock = socket.create_connection((self.host, self.port), timeout=10.0)
        try:
            transport.send_frame(
                sock, ("hello", transport.TRANSPORT_SCHEMA,
                       transport.config_fingerprint(), "store"))
            reply = transport.recv_frame(sock)
        except BaseException:
            sock.close()
            raise
        if not (isinstance(reply, tuple) and reply and reply[0] == "welcome"):
            sock.close()
            raise transport.HandshakeError(
                f"served store rejected this client: {reply!r}")
        return sock

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _give_up(self) -> None:
        """Degrade permanently to the in-memory tier (never an error)."""
        self._broken = True
        self.errors += 1
        self._drop_socket()

    def _rpc(self, message: Tuple) -> Optional[Tuple]:
        """One round trip; ``None`` once degraded.

        A server-side transient (``database is locked``) comes back as
        an ``("err", ...)`` reply and is re-raised as the sqlite error
        it describes, so :meth:`upsert`'s retry policy treats wire and
        local contention identically.
        """
        if self._broken:
            return None
        transport = self._transport
        for attempt in (1, 2):
            try:
                if self._sock is None:
                    self._sock = self._connect()
                transport.send_frame(self._sock, message)
                reply = transport.recv_frame(self._sock)
            except transport.HandshakeError:
                self._give_up()
                return None
            except (transport.FrameError, OSError):
                # One transparent reconnect — the coordinator may have
                # restarted between batches.  A second failure degrades.
                self._drop_socket()
                if attempt == 2:
                    self._give_up()
                    return None
                continue
            self.rpcs += 1
            if isinstance(reply, tuple) and reply and reply[0] == "err":
                detail = str(reply[1])
                if "locked" in detail.lower() or "busy" in detail.lower():
                    raise sqlite3.OperationalError(detail)
                self._give_up()
                return None
            return reply
        return None

    def _read_rpc(self, message: Tuple) -> Optional[Tuple]:
        """An RPC whose locked replies are misses, not retry candidates."""
        try:
            return self._rpc(message)
        except sqlite3.OperationalError:
            return None

    # -- store operations --------------------------------------------------
    def entry_count(self) -> int:
        reply = self._read_rpc(("count",))
        return int(reply[1]) if reply else 0

    def max_stamp(self) -> int:
        reply = self._read_rpc(("maxstamp",))
        return int(reply[1]) if reply else 0

    def _get_batch(self, texts: Dict[str, CacheKey]
                   ) -> Dict[CacheKey, ValidationResult]:
        reply = self._read_rpc(("get", list(texts)))
        if reply is None or reply[0] != "entries":
            return {}
        self.get_rpcs += 1
        self.batched_gets += len(texts)
        entries = reply[1]
        found: Dict[CacheKey, ValidationResult] = {}
        for text, key in texts.items():
            payload = entries.get(text)
            if payload is None:
                self._absent.add(text)
                continue
            self.bytes_read += len(payload)
            try:
                result = _decode_result(json.loads(payload))
            except (KeyError, TypeError, ValueError):
                self._absent.add(text)
                continue
            self.lazy_loads += 1
            found[key] = result
        return found

    def fetch(self, key: CacheKey) -> Optional[ValidationResult]:
        """Fault one entry in over the wire, or ``None`` (miss / degraded)."""
        text = _encode_key(key)
        if text in self._absent:
            return None
        return self._get_batch({text: key}).get(key)

    def prefetch(self, keys: Iterable[CacheKey]
                 ) -> Dict[CacheKey, ValidationResult]:
        """Fault a whole plan's keys in with one batched round trip."""
        texts: Dict[str, CacheKey] = {}
        for key in keys:
            text = _encode_key(key)
            if text not in self._absent and text not in texts:
                texts[text] = key
        if not texts:
            return {}
        return self._get_batch(texts)

    def upsert(self, items: Iterable[Tuple[CacheKey, ValidationResult]],
               hit_stamp: Dict[CacheKey, int]) -> int:
        """Ship a flush batch as one ``put`` RPC; returns entries stored."""
        rows = [(_encode_key(key), _encode_result(result),
                 int(hit_stamp.get(key, 0)))
                for key, result in items]
        if not rows or self._broken:
            return 0

        def attempt() -> int:
            reply = self._rpc(("put", rows))
            return int(reply[1]) if reply else 0

        def count_retry(attempt_number: int, error: BaseException) -> None:
            self.retries += 1

        from .scheduler.retry import LOCKED_FLUSH_RETRY, retry_call
        try:
            stored = retry_call(attempt, policy=LOCKED_FLUSH_RETRY,
                                retry_if=_is_locked,
                                seed=getattr(self.fault_plan, "seed", 0),
                                on_retry=count_retry)
        except (sqlite3.Error, OSError):
            self._give_up()
            return 0
        if stored:
            self.flushes += 1
            self.bytes_written += sum(len(row[1]) for row in rows)
            for row in rows:
                self._absent.discard(row[0])
        return stored

    def touch(self, hit_stamp: Dict[CacheKey, int]) -> None:
        """Refresh served-store recency for entries this process consumed."""
        if not hit_stamp:
            return
        rows = [(_encode_key(key), int(stamp))
                for key, stamp in hit_stamp.items()]
        self._read_rpc(("touch", rows))  # recency is advisory

    def evict_to_budget(self, max_bytes: int) -> int:
        reply = self._read_rpc(("evict", int(max_bytes)))
        return int(reply[1]) if reply else 0

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._transport.send_frame(self._sock, ("bye",))
            except (OSError, RuntimeError):
                pass
            self._drop_socket()


class ValidationCache:
    """Memoizes validation results by function-pair content.

    Parameters
    ----------
    path:
        Optional persistence location — a directory, a ``.json`` file or
        a ``.sqlite`` / ``.db`` file.  When given, a proof store opens
        behind the in-memory map: the JSON backend loads everything
        immediately, the SQLite backend faults entries in lazily as
        :meth:`get` / :meth:`peek` ask for them.  Loading is fully
        tolerant: corruption, schema mismatches, malformed entries and
        mid-run store faults are absorbed (the affected entries simply
        cost a re-validation), never raised.
    max_bytes:
        Size budget for the serialized store (``0`` = unbounded, the
        historical behavior).  When exceeded at save time, entries are
        evicted **least-recently-hit first** — recency is tracked across
        :meth:`get` hits and :meth:`put` stores; entries never consumed
        rank oldest, tie-broken deterministically by serialized key.
        Eviction can only cost re-validation time, never correctness.
    backend:
        ``"auto"`` (default), ``"json"`` or ``"sqlite"``.  Explicit file
        suffixes in ``path`` win; for a cache directory, ``"auto"``
        prefers an existing SQLite store and falls back to JSON.  The
        backend is a persistence knob like ``path`` itself: it is *not*
        part of the cache key, and both backends store byte-identical
        verdicts.
    """

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None,
                 max_bytes: int = 0, backend: str = "auto",
                 fault_plan: Optional[faults.FaultPlan] = None) -> None:
        if backend not in CACHE_BACKENDS:
            raise ValueError(
                f"unknown cache backend {backend!r}; expected one of {CACHE_BACKENDS}")
        self._results: Dict[CacheKey, ValidationResult] = {}
        #: Number of lookups answered from the cache.
        self.hits = 0
        #: Number of lookups that had to validate.
        self.misses = 0
        #: Entries available from the store at construction time.
        self.loaded = 0
        #: Entries held by the store after the most recent :meth:`save`.
        self.stored = 0
        #: Entries dropped by the ``max_bytes`` budget across all saves.
        self.evicted = 0
        #: Size budget for the serialized store (0 = unbounded).
        self.max_bytes = max_bytes
        #: Resolved persistence file, or ``None`` for an in-memory cache.
        self.path: Optional[Path] = None
        #: Resolved backend name: ``"memory"``, ``"json"``, ``"sqlite"``
        #: or ``"remote"`` (a ``remote://HOST:PORT`` path — the served
        #: proof store of a running steal coordinator).
        self.backend = "memory"
        self._store: Optional[Union[JsonStore, SqliteStore, RemoteStore]] = None
        self._dirty = False
        #: Dirty keys awaiting an incremental flush (lazy backends only),
        #: in insertion order.
        self._pending: Dict[CacheKey, None] = {}
        #: Monotonic recency stamps: key -> last hit/store tick.
        self._hit_stamp: Dict[CacheKey, int] = {}
        self._tick = 0
        if isinstance(path, str) and path.startswith(REMOTE_PREFIX):
            self.backend = "remote"
            self._store = RemoteStore(path, fault_plan=fault_plan)
            self.loaded = self._store.entry_count()
            self._tick = self._store.max_stamp()
        elif path is not None:
            file_path, resolved = _resolve_cache_path(path, backend)
            self.path = file_path
            self.backend = resolved
            self._store = (JsonStore(file_path, fault_plan=fault_plan)
                           if resolved == "json"
                           else SqliteStore(file_path, fault_plan=fault_plan))
            if self._store.eager:
                self._results.update(self._store.load())
                self.loaded = len(self._results)
            else:
                self.loaded = self._store.entry_count()
                # Continue recency above what is already on disk so this
                # run's hits outrank every earlier run's at eviction time.
                self._tick = self._store.max_stamp()

    def __len__(self) -> int:
        return len(self._results)

    @property
    def persistent(self) -> bool:
        """Does this cache have an on-disk (or served) backend?"""
        return self.path is not None or self._store is not None

    def key(self, before: Function, after: Function,
            config: ValidatorConfig) -> CacheKey:
        """The cache key for one validation query (remembered checkpoints are not re-hashed)."""
        return self.key_for(CHECKPOINT_FINGERPRINTS.fingerprint(before),
                            CHECKPOINT_FINGERPRINTS.fingerprint(after), config)

    @staticmethod
    def key_for(fingerprint_before: str, fingerprint_after: str,
                config: ValidatorConfig) -> CacheKey:
        """The cache key for a pair of precomputed content fingerprints.

        The batch driver fingerprints every pipeline checkpoint exactly
        once and derives all of its pair keys from those, instead of
        re-printing each function per adjacent pair.
        """
        return (
            fingerprint_before,
            fingerprint_after,
            tuple(config.rule_groups),
            config.matcher,
            config.engine,
            config.max_iterations,
            config.recursion_limit,
        )

    def prefetch(self, keys: Iterable[CacheKey]) -> int:
        """Batch-fault ``keys`` from a lazy store in one round trip.

        A no-op (returning 0) unless the store implements batched gets
        — today only the ``remote`` backend does.  The planner calls
        this once per work plan, so a remote proof store answers a
        whole batch's :meth:`peek` traffic with a single get RPC
        instead of one round trip per key; for every other backend the
        per-key :meth:`peek` path is untouched.  Returns the number of
        entries faulted in.
        """
        if self._store is None or self._store.eager:
            return 0
        batched = getattr(self._store, "prefetch", None)
        if batched is None:
            return 0
        missing = [key for key in dict.fromkeys(keys)
                   if key not in self._results]
        if not missing:
            return 0
        found = batched(missing)
        self._results.update(found)
        return len(found)

    def peek(self, key: CacheKey) -> Optional[ValidationResult]:
        """The stored result for ``key`` (no hit/miss accounting).

        Lazy backends fault the entry in from disk on first sight; once
        faulted it lives in the in-memory tier like any other entry.
        """
        result = self._results.get(key)
        if result is None and self._store is not None and not self._store.eager:
            result = self._store.fetch(key)
            if result is not None:
                self._results[key] = result
        return result

    def get(self, key: CacheKey, function_name: str) -> Optional[ValidationResult]:
        """A cached result renamed for ``function_name``, or ``None``."""
        cached = self.peek(key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key)
        return replace(cached, function_name=function_name)

    def put(self, key: CacheKey, result: ValidationResult) -> None:
        """Store one validation outcome.

        Synthetic denials (budget, timeout, quarantine) are silently
        refused: they say nothing about the pair's semantics, and a
        cached one would survive into runs whose budgets could afford
        the real answer.  The executors route them around the cache
        already; this guard is the backstop that makes poisoning
        *impossible*, not merely avoided.
        """
        if result.reason in UNCACHEABLE_REASONS:
            return
        self._results[key] = result
        self._touch(key)
        self._dirty = True
        if self._store is not None and not self._store.eager:
            self._pending[key] = None
            if len(self._pending) >= _SQLITE_FLUSH_INTERVAL:
                self._flush_pending()

    def _touch(self, key: CacheKey) -> None:
        self._tick += 1
        self._hit_stamp[key] = self._tick

    def _flush_pending(self) -> None:
        if not self._pending or self._store is None:
            return
        self._store.upsert(((key, self._results[key]) for key in self._pending),
                           self._hit_stamp)
        self._pending.clear()

    def merge(self, other: "ValidationCache") -> int:
        """Adopt every entry of ``other`` this cache does not hold yet.

        Returns the number of entries adopted.  Existing entries win (both
        sides describe the same content-addressed verdict, so which copy
        survives is immaterial; keeping ours avoids churn).
        """
        added = 0
        for key, result in other._results.items():
            if key not in self._results:
                self._results[key] = result
                if self._store is not None and not self._store.eager:
                    self._pending[key] = None
                added += 1
        if added:
            self._dirty = True
        return added

    # -- persistence -------------------------------------------------------
    def save(self, path: Optional[Union[str, os.PathLike]] = None) -> int:
        """Persist the cache; returns the store's entry count afterwards.

        JSON saves are atomic (temp file + rename), *merging* (entries
        another process stored since we loaded are re-read and kept) and
        serialized against concurrent savers by an exclusive lock.
        SQLite saves flush the remaining dirty entries incrementally,
        refresh recency stamps and enforce the byte budget in SQL.  An
        explicit ``path`` writes a one-shot copy to that location (its
        suffix selects the format) without rebinding the cache.  With no
        ``path`` and no construction-time store this is a no-op
        returning ``0``.
        """
        if path is not None:
            target, resolved = _resolve_cache_path(path, "auto")
            if target != self.path:
                return self._save_one_shot(target, resolved)
        if self._store is None:
            return 0
        if self._store.eager:
            try:
                merged, stored, evicted = self._store.save(
                    self._results, self._hit_stamp, self.max_bytes)
            except OSError:
                # A failed whole-file write (full disk, permissions)
                # costs persistence, never correctness: the in-memory
                # tier keeps serving, the entries stay dirty, and the
                # next save retries the write.
                self._store.errors += 1
                return len(self._results)
            self._results = merged
            self.evicted += evicted
            self.stored = stored
        else:
            self._flush_pending()
            self._store.touch(self._hit_stamp)
            if self.max_bytes:
                self.evicted += self._store.evict_to_budget(self.max_bytes)
            self.stored = self._store.entry_count()
        self._dirty = False
        return self.stored

    def _save_one_shot(self, target: Path, backend: str) -> int:
        store = JsonStore(target) if backend == "json" else SqliteStore(target)
        try:
            if isinstance(store, JsonStore):
                merged, stored, evicted = store.save(
                    dict(self._results), self._hit_stamp, self.max_bytes)
            else:
                store.upsert(self._results.items(), self._hit_stamp)
                evicted = (store.evict_to_budget(self.max_bytes)
                           if self.max_bytes else 0)
                stored = store.entry_count()
        finally:
            store.close()
        self.evicted += evicted
        self.stored = stored
        self._dirty = False
        return stored

    def save_if_dirty(self) -> int:
        """Persist only when persistent and changed since load/last save."""
        if self.persistent and self._dirty:
            return self.save()
        return 0

    def close(self) -> None:
        """Release the store's resources (idempotent; in-memory: no-op)."""
        if self._store is not None:
            self._store.close()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters as a plain dict (for reports).

        Persistent caches additionally report how many entries the proof
        store held at open (``disk_loaded``), how many it held after the
        last save (``disk_stored``), how many the ``max_bytes`` budget
        evicted across saves (``disk_evicted``), and the per-backend
        plumbing: entries faulted in lazily (``store_lazy_loads``),
        completed incremental/whole-file writes (``store_flushes``),
        faults absorbed by degrading to the in-memory tier
        (``store_errors``) and serialized payload traffic
        (``store_bytes_read`` / ``store_bytes_written``).
        """
        counters = {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._results)}
        if self._store is not None:
            counters["disk_loaded"] = self.loaded
            counters["disk_stored"] = self.stored
            counters["disk_evicted"] = self.evicted
            counters["store_lazy_loads"] = self._store.lazy_loads
            counters["store_flushes"] = self._store.flushes
            counters["store_errors"] = self._store.errors
            counters["store_retries"] = self._store.retries
            counters["store_bytes_read"] = self._store.bytes_read
            counters["store_bytes_written"] = self._store.bytes_written
            # Remote-backend round-trip accounting (absent elsewhere).
            for extra in ("rpcs", "get_rpcs", "batched_gets"):
                value = getattr(self._store, extra, None)
                if value is not None:
                    counters[f"store_{extra}"] = value
        return counters


#: Fixed JSON envelope :meth:`JsonStore.save` writes around the entries
#: map — ``{"entries": {`` … ``}, "schema": N}`` plus the trailing newline
#: — charged against the byte budget so the *file* fits it.
_FILE_ENVELOPE = 32


def _entry_size(key: CacheKey, result: ValidationResult) -> int:
    """Serialized footprint of one entry (key, payload, JSON punctuation).

    Measured in *file* bytes: the encoded key lands on disk as a JSON
    string — its many embedded quotes escape to two bytes each — so it
    is sized through ``json.dumps``, not ``len`` of the raw string; the
    ``+ 4`` covers the ``": "`` joining key and payload and the ``", "``
    chaining entries.  Both backends charge this same logical measure
    against ``max_bytes``, so a budget means the same thing whichever
    store enforces it.
    """
    return (len(json.dumps(_encode_key(key)))
            + len(_encode_result(result)) + 4)


def _evict_to_budget(entries: Dict[CacheKey, ValidationResult],
                     hit_stamp: Dict[CacheKey, int], max_bytes: int) -> int:
    """Drop least-recently-hit entries until the saved file fits ``max_bytes``.

    Entries this process never touched (loaded from disk or merged from a
    concurrent writer) have no stamp and rank oldest, tie-broken by their
    serialized key so eviction is deterministic.  Returns the number of
    entries dropped; ``entries`` is mutated in place.
    """
    budget = max(0, max_bytes - _FILE_ENVELOPE)
    sizes = {key: _entry_size(key, result) for key, result in entries.items()}
    total = sum(sizes.values())
    if total <= budget:
        return 0
    victims = sorted(entries,
                     key=lambda key: (hit_stamp.get(key, 0), _encode_key(key)))
    dropped = 0
    for key in victims:
        if total <= budget:
            break
        total -= sizes[key]
        del entries[key]
        dropped += 1
    return dropped


def _parse_cache_text(text: str) -> Dict[CacheKey, ValidationResult]:
    """Decode a JSON cache file body, tolerating every malformation.

    Invalid JSON, wrong top-level shape or a schema-version mismatch all
    yield an empty dict; individually malformed entries are skipped
    without poisoning their neighbours.
    """
    try:
        payload = json.loads(text)
    except ValueError:
        return {}
    if not isinstance(payload, dict) or payload.get("schema") != CACHE_SCHEMA:
        return {}
    entries = payload.get("entries")
    if not isinstance(entries, dict):
        return {}
    results: Dict[CacheKey, ValidationResult] = {}
    for key_text, result_payload in entries.items():
        try:
            results[_decode_key(key_text)] = _decode_result(result_payload)
        except (KeyError, TypeError, ValueError):
            continue
    return results


def _read_cache_file(path: Path) -> Dict[CacheKey, ValidationResult]:
    """Load entries from ``path``, tolerating every way the file can be bad."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return {}
    return _parse_cache_text(text)


def migrate_json_to_sqlite(path: Union[str, os.PathLike],
                           *, dry_run: bool = False) -> Tuple[int, int, Path]:
    """Idempotent JSON → SQLite proof-store migration.

    Reads the JSON cache at ``path`` (a cache directory or a ``.json``
    file) and upserts every entry the SQLite store beside it does not
    already hold; the JSON file is left untouched, so the migration is
    safely retryable and reversible by deletion.  Re-running against an
    already-migrated path is a counted no-op: existing keys are skipped,
    not rewritten, and nothing errors.  Once the SQLite file exists,
    ``backend="auto"`` prefers it.  With ``dry_run=True`` nothing is
    written (and an absent store is not created) — the counts report
    what a real run would do.  Returns ``(migrated, skipped, sqlite
    path)``; an empty or unreadable source migrates 0 entries but still
    creates the (empty) store unless ``dry_run``.
    """
    source, _ = _resolve_cache_path(path, "json")
    entries = _read_cache_file(source)
    target = source.with_suffix(".sqlite")
    if dry_run and not target.exists():
        # Nothing to compare against: every source entry would migrate.
        return len(entries), 0, target
    store = SqliteStore(target)
    try:
        fresh = {key: result for key, result in entries.items()
                 if store.fetch(key) is None}
        skipped = len(entries) - len(fresh)
        if dry_run:
            return len(fresh), skipped, target
        migrated = store.upsert(fresh.items(), {}) if fresh else 0
        if not entries:
            store.entry_count()  # force creation of the empty store
    finally:
        store.close()
    return migrated, skipped, target


def _main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.validator.cache",
        description="Proof-store maintenance for the validation cache.")
    commands = parser.add_subparsers(dest="command", required=True)
    migrate = commands.add_parser(
        "migrate", help="idempotent JSON -> SQLite migration of a cache path")
    migrate.add_argument("path", help="cache directory or .json cache file")
    migrate.add_argument("--dry-run", action="store_true",
                         help="report what would migrate without writing")
    args = parser.parse_args(argv)
    migrated, skipped, target = migrate_json_to_sqlite(
        args.path, dry_run=args.dry_run)
    verb = "would migrate" if args.dry_run else "migrated"
    suffix = f" ({skipped} already present)" if skipped else ""
    print(f"{verb} {migrated} entries to {target}{suffix}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(_main())


__all__ = [
    "CacheKey",
    "CACHE_SCHEMA",
    "SQLITE_SCHEMA",
    "CACHE_FILE_NAME",
    "SQLITE_FILE_NAME",
    "CACHE_BACKENDS",
    "REMOTE_PREFIX",
    "JsonStore",
    "SqliteStore",
    "RemoteStore",
    "sidecar_flock",
    "ValidationCache",
    "migrate_json_to_sqlite",
]
