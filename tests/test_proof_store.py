"""Tests for the SQLite proof store and the JSON store's save locking.

Covers the lazy SQLite backend (roundtrip, faulting, auto-detection,
migration from JSON, in-database eviction, WAL mode, schema and
corruption tolerance), fault injection mid-run (corruption, a locked
database, a full disk — all must degrade to the in-memory tier with
identical verdicts and an exact hit/miss ledger), the warm-run laziness
criterion, and the ``flock`` serialization of concurrent JSON savers.
"""

import json
import sqlite3
import threading
import time
from dataclasses import replace

import pytest

from repro.bench import small_test_corpus
from repro.ir import clone_function, parse_function
from repro.transforms import PAPER_PIPELINE
from repro.validator import (
    CACHE_FILE_NAME,
    SQLITE_FILE_NAME,
    SQLITE_SCHEMA,
    DEFAULT_CONFIG,
    ValidationCache,
    llvm_md,
    migrate_json_to_sqlite,
    validate,
    validate_module_batch,
)
from repro.validator.cache import _main as cache_cli

try:
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only test environment
    fcntl = None


@pytest.fixture
def pair(loop_source):
    before = parse_function(loop_source)
    return before, clone_function(before)


def _filled_cache(tmp_path, entries=6, backend="sqlite"):
    cache = ValidationCache(tmp_path, backend=backend)
    keys = []
    for index in range(entries):
        before = parse_function(
            f"define i32 @f{index}(i32 %a) {{\n"
            f"entry:\n  %t = add i32 %a, {index}\n  ret i32 %t\n}}"
        )
        after = clone_function(before)
        key = cache.key(before, after, DEFAULT_CONFIG)
        cache.put(key, validate(before, after, DEFAULT_CONFIG))
        keys.append(key)
    return cache, keys


class TestSqliteRoundtrip:
    def test_save_and_lazy_reload(self, tmp_path, pair):
        before, after = pair
        cache = ValidationCache(tmp_path, backend="sqlite")
        assert cache.backend == "sqlite"
        key = cache.key(before, after, DEFAULT_CONFIG)
        result = validate(before, after, DEFAULT_CONFIG)
        cache.put(key, result)
        assert cache.save() == 1
        cache.close()
        assert (tmp_path / SQLITE_FILE_NAME).exists()

        reloaded = ValidationCache(tmp_path, backend="sqlite")
        # Lazy: the store advertises its entry count without decoding
        # anything — nothing is in memory until a peek faults it in.
        assert reloaded.loaded == 1
        assert len(reloaded) == 0
        assert reloaded.stats()["store_lazy_loads"] == 0
        stored = reloaded.peek(key)
        assert stored is not None
        assert stored.is_success == result.is_success
        assert stored.reason == result.reason
        assert stored.stats == result.stats
        assert stored.graph_nodes == result.graph_nodes
        counters = reloaded.stats()
        assert counters["store_lazy_loads"] == 1
        assert counters["store_bytes_read"] > 0
        # Once faulted the entry lives in memory: no second disk read.
        assert reloaded.peek(key) is stored or reloaded.peek(key) is not None
        assert reloaded.stats()["store_lazy_loads"] == 1

    def test_incremental_flush_interval(self, tmp_path):
        from repro.validator import cache as cache_module

        cache, keys = _filled_cache(tmp_path, entries=5)
        assert cache.stats()["store_flushes"] == 0  # under the interval
        # Shrink the interval: the next put crosses it and flushes.
        original = cache_module._SQLITE_FLUSH_INTERVAL
        try:
            cache_module._SQLITE_FLUSH_INTERVAL = 3
            before = parse_function(
                "define i32 @extra(i32 %a) {\nentry:\n"
                "  %t = mul i32 %a, 3\n  ret i32 %t\n}")
            after = clone_function(before)
            cache.put(cache.key(before, after, DEFAULT_CONFIG),
                      validate(before, after, DEFAULT_CONFIG))
        finally:
            cache_module._SQLITE_FLUSH_INTERVAL = original
        assert cache.stats()["store_flushes"] == 1
        assert cache.stats()["store_bytes_written"] > 0
        # Entries flushed incrementally are durable even without save().
        cache.close()
        assert ValidationCache(tmp_path, backend="sqlite").loaded == 6

    def test_explicit_sqlite_path(self, tmp_path, pair):
        before, after = pair
        target = tmp_path / "custom.sqlite"
        cache = ValidationCache(target)
        assert cache.backend == "sqlite"
        cache.put(cache.key(before, after, DEFAULT_CONFIG),
                  validate(before, after, DEFAULT_CONFIG))
        cache.save()
        cache.close()
        assert target.exists()
        assert ValidationCache(target).loaded == 1

    def test_wal_mode_active(self, tmp_path, pair):
        before, after = pair
        cache = ValidationCache(tmp_path, backend="sqlite")
        cache.put(cache.key(before, after, DEFAULT_CONFIG),
                  validate(before, after, DEFAULT_CONFIG))
        cache.save()
        cache.close()
        conn = sqlite3.connect(str(tmp_path / SQLITE_FILE_NAME))
        try:
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        finally:
            conn.close()

    def test_two_writers_share_one_store(self, tmp_path, pair, diamond_source):
        # WAL + busy timeout: two caches upsert into one database and
        # neither clobbers the other's entries.
        before, after = pair
        other_before = parse_function(diamond_source)
        other_after = clone_function(other_before)
        writer_a = ValidationCache(tmp_path, backend="sqlite")
        writer_b = ValidationCache(tmp_path, backend="sqlite")
        writer_a.put(writer_a.key(before, after, DEFAULT_CONFIG),
                     validate(before, after, DEFAULT_CONFIG))
        writer_b.put(writer_b.key(other_before, other_after, DEFAULT_CONFIG),
                     validate(other_before, other_after, DEFAULT_CONFIG))
        writer_a.save()
        assert writer_b.save() == 2  # sees writer_a's entry in the count
        writer_a.close()
        writer_b.close()
        assert ValidationCache(tmp_path, backend="sqlite").loaded == 2


class TestBackendSelection:
    def test_auto_prefers_existing_sqlite(self, tmp_path, pair):
        before, after = pair
        seeded = ValidationCache(tmp_path, backend="sqlite")
        seeded.put(seeded.key(before, after, DEFAULT_CONFIG),
                   validate(before, after, DEFAULT_CONFIG))
        seeded.save()
        seeded.close()
        auto = ValidationCache(tmp_path)
        assert auto.backend == "sqlite"
        assert auto.loaded == 1

    def test_auto_defaults_to_json_on_fresh_directory(self, tmp_path):
        assert ValidationCache(tmp_path).backend == "json"

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cache backend"):
            ValidationCache(tmp_path, backend="bogus")
        with pytest.raises(ValueError, match="cache backend"):
            replace(DEFAULT_CONFIG, cache_backend="bogus")

    def test_config_backend_reaches_driver_cache(self, tmp_path):
        module = small_test_corpus(functions=4, seed=3)
        config = replace(DEFAULT_CONFIG, cache_dir=str(tmp_path),
                         cache_backend="sqlite")
        llvm_md(module, PAPER_PIPELINE, config, strategy="stepwise")
        assert (tmp_path / SQLITE_FILE_NAME).exists()
        assert not (tmp_path / CACHE_FILE_NAME).exists()


class TestMigration:
    def _seed_json(self, tmp_path, pair):
        before, after = pair
        cache = ValidationCache(tmp_path, backend="json")
        key = cache.key(before, after, DEFAULT_CONFIG)
        cache.put(key, validate(before, after, DEFAULT_CONFIG))
        cache.save()
        return key

    def test_migrate_then_auto_resolves_sqlite(self, tmp_path, pair):
        key = self._seed_json(tmp_path, pair)
        migrated, skipped, target = migrate_json_to_sqlite(tmp_path)
        assert (migrated, skipped) == (1, 0)
        assert target == tmp_path / SQLITE_FILE_NAME
        # The JSON source is untouched: the migration is retryable.
        assert (tmp_path / CACHE_FILE_NAME).exists()
        # Re-running is an idempotent, counted no-op.
        assert migrate_json_to_sqlite(tmp_path)[:2] == (0, 1)
        cache = ValidationCache(tmp_path)  # auto now prefers the sqlite file
        assert cache.backend == "sqlite"
        assert cache.peek(key) is not None

    def test_migrate_dry_run_writes_nothing(self, tmp_path, pair):
        self._seed_json(tmp_path, pair)
        migrated, skipped, target = migrate_json_to_sqlite(tmp_path,
                                                           dry_run=True)
        assert (migrated, skipped) == (1, 0)
        assert not target.exists()
        # A real run still migrates; a dry run after it reports the skip.
        assert migrate_json_to_sqlite(tmp_path)[:2] == (1, 0)
        assert migrate_json_to_sqlite(tmp_path, dry_run=True)[:2] == (0, 1)

    def test_migrate_empty_source_creates_empty_store(self, tmp_path):
        migrated, skipped, target = migrate_json_to_sqlite(tmp_path)
        assert (migrated, skipped) == (0, 0)
        assert target.exists()
        assert ValidationCache(tmp_path).backend == "sqlite"

    def test_cli_migrate(self, tmp_path, pair, capsys):
        self._seed_json(tmp_path, pair)
        assert cache_cli(["migrate", "--dry-run", str(tmp_path)]) == 0
        assert "would migrate 1 entries" in capsys.readouterr().out
        assert not (tmp_path / SQLITE_FILE_NAME).exists()
        assert cache_cli(["migrate", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "migrated 1 entries" in out
        assert (tmp_path / SQLITE_FILE_NAME).exists()
        assert cache_cli(["migrate", str(tmp_path)]) == 0
        assert "(1 already present)" in capsys.readouterr().out


class TestSqliteEviction:
    def test_budget_evicts_inside_the_database(self, tmp_path):
        cache, keys = _filled_cache(tmp_path)
        cache.max_bytes = 1024
        stored = cache.save()
        assert cache.evicted > 0
        assert stored == len(keys) - cache.evicted
        assert cache.stats()["disk_evicted"] == cache.evicted
        cache.close()
        conn = sqlite3.connect(str(tmp_path / SQLITE_FILE_NAME))
        try:
            count, total = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM entries").fetchone()
        finally:
            conn.close()
        assert count == stored
        assert total <= 1024

    def test_least_recently_hit_evicted_first(self, tmp_path):
        cache, keys = _filled_cache(tmp_path)
        # Touch the first key last: it becomes the most recently hit.
        assert cache.get(keys[0], "f0") is not None
        cache.max_bytes = 1500  # room for ~2 of the ~640-byte entries
        cache.save()
        assert cache.evicted > 0
        cache.close()
        survivor = ValidationCache(tmp_path, backend="sqlite")
        assert survivor.peek(keys[0]) is not None, "hot entry must survive"

    def test_recency_stamps_continue_across_processes(self, tmp_path):
        cache, keys = _filled_cache(tmp_path)
        cache.save()
        cache.close()
        # A later process stores one fresh entry; its recency outranks
        # every earlier run's, so under pressure the old entries lose.
        reloaded = ValidationCache(tmp_path, backend="sqlite")
        before = parse_function(
            "define i32 @fresh(i32 %a) {\nentry:\n  %t = mul i32 %a, 7\n  ret i32 %t\n}")
        after = clone_function(before)
        fresh_key = reloaded.key(before, after, DEFAULT_CONFIG)
        reloaded.put(fresh_key, validate(before, after, DEFAULT_CONFIG))
        reloaded.max_bytes = 1500
        reloaded.save()
        assert reloaded.evicted > 0
        reloaded.close()
        assert ValidationCache(tmp_path, backend="sqlite").peek(fresh_key) is not None


class TestSqliteTolerance:
    def test_corrupted_file_discarded_and_recreated(self, tmp_path, pair):
        before, after = pair
        target = tmp_path / SQLITE_FILE_NAME
        target.write_bytes(b"this is not a sqlite database at all")
        cache = ValidationCache(tmp_path, backend="sqlite")
        assert cache.loaded == 0
        # The broken file was replaced by a working cold store.
        cache.put(cache.key(before, after, DEFAULT_CONFIG),
                  validate(before, after, DEFAULT_CONFIG))
        assert cache.save() == 1
        assert cache.stats()["store_errors"] == 0
        cache.close()
        assert ValidationCache(tmp_path, backend="sqlite").loaded == 1

    def test_schema_mismatch_starts_cold(self, tmp_path, pair):
        before, after = pair
        cache = ValidationCache(tmp_path, backend="sqlite")
        cache.put(cache.key(before, after, DEFAULT_CONFIG),
                  validate(before, after, DEFAULT_CONFIG))
        cache.save()
        cache.close()
        conn = sqlite3.connect(str(tmp_path / SQLITE_FILE_NAME))
        conn.execute("PRAGMA user_version = %d" % (SQLITE_SCHEMA + 999))
        conn.commit()
        conn.close()
        reopened = ValidationCache(tmp_path, backend="sqlite")
        assert reopened.loaded == 0  # table dropped, store recreated cold
        reopened.close()

    def test_malformed_entry_skipped_without_poisoning_neighbours(
            self, tmp_path, pair):
        before, after = pair
        cache = ValidationCache(tmp_path, backend="sqlite")
        key = cache.key(before, after, DEFAULT_CONFIG)
        cache.put(key, validate(before, after, DEFAULT_CONFIG))
        cache.save()
        cache.close()
        conn = sqlite3.connect(str(tmp_path / SQLITE_FILE_NAME))
        conn.execute(
            "INSERT INTO entries (key, payload, size, last_hit)"
            " VALUES ('garbage-key', 'not json', 8, 0)")
        conn.commit()
        conn.close()
        reopened = ValidationCache(tmp_path, backend="sqlite")
        assert reopened.peek(key) is not None
        # The malformed row reads as a miss, not a store fault.
        assert reopened.stats()["store_errors"] == 0
        reopened.close()


class _FaultyConnection:
    """Stands in for a sqlite3 connection whose every operation fails."""

    def __init__(self, error: BaseException) -> None:
        self.error = error

    def execute(self, *args, **kwargs):
        raise self.error

    def executemany(self, *args, **kwargs):
        raise self.error

    def commit(self):
        raise self.error

    def close(self):
        pass


class TestSqliteFaultInjection:
    """Mid-run store faults degrade to the in-memory tier losslessly:
    verdicts stay identical and the hit/miss ledger is unchanged —
    mirroring the executor pool-death tests in test_stepwise.py."""

    FAULTS = [
        pytest.param(sqlite3.DatabaseError("database disk image is malformed"),
                     id="corruption"),
        pytest.param(sqlite3.OperationalError("database is locked"),
                     id="locked-timeout"),
        pytest.param(sqlite3.OperationalError("database or disk is full"),
                     id="disk-full"),
    ]

    @pytest.mark.parametrize("error", FAULTS)
    def test_mid_run_fault_degrades_to_memory_tier(self, tmp_path, error):
        module = small_test_corpus(functions=5, seed=11)
        clean_cache = ValidationCache()
        (_, clean), = validate_module_batch(
            [module], PAPER_PIPELINE, config=DEFAULT_CONFIG,
            cache=clean_cache, strategy="stepwise")
        broken_cache = ValidationCache(tmp_path, backend="sqlite")
        # Swap the live connection for one that fails every statement:
        # the first store operation of the run discovers the fault.
        broken_cache._store.close()
        broken_cache._store._conn = _FaultyConnection(error)
        (_, report), = validate_module_batch(
            [module], PAPER_PIPELINE, config=DEFAULT_CONFIG,
            cache=broken_cache, strategy="stepwise")
        assert [r.signature() for r in clean.records] == \
               [r.signature() for r in report.records]
        counters = broken_cache.stats()
        assert counters["store_errors"] >= 1
        # Exact ledger: the broken store behaves like the in-memory tier.
        assert broken_cache.hits == clean_cache.hits
        assert broken_cache.misses == clean_cache.misses
        assert len(broken_cache) == len(clean_cache)
        # The degradation is permanent but harmless: saving is a no-op
        # that neither raises nor resurrects the connection.
        assert broken_cache.save() == 0
        assert broken_cache.stats()["store_errors"] == counters["store_errors"]

    @pytest.mark.parametrize("error", FAULTS)
    def test_faulted_store_still_answers_warm_queries_from_memory(
            self, tmp_path, error):
        module = small_test_corpus(functions=5, seed=11)
        cache = ValidationCache(tmp_path, backend="sqlite")
        cache._store.close()
        cache._store._conn = _FaultyConnection(error)
        (_, cold), = validate_module_batch(
            [module], PAPER_PIPELINE, config=DEFAULT_CONFIG,
            cache=cache, strategy="stepwise")
        assert cache.misses > 0
        # Same cache object, second sweep: the in-memory tier answers
        # everything even though the disk store is gone.
        (_, warm), = validate_module_batch(
            [module], PAPER_PIPELINE, config=DEFAULT_CONFIG,
            cache=cache, strategy="stepwise")
        assert [r.signature() for r in cold.records] == \
               [r.signature() for r in warm.records]
        assert all(r.from_cache for r in warm.records if r.transformed)


class TestWarmRunLaziness:
    def test_warm_sqlite_run_faults_fewer_entries_than_stored(self, tmp_path):
        # The batch driver's cold chain items store whole-key verdicts
        # for accepted multi-step functions; a warm run peeks only the
        # pair keys (and the whole keys of *rejected* functions), so it
        # faults in strictly fewer entries than the store holds.
        module = small_test_corpus(functions=5, seed=11)
        config = replace(DEFAULT_CONFIG, cache_dir=str(tmp_path),
                         cache_backend="sqlite")
        (_, cold), = validate_module_batch(
            [module], PAPER_PIPELINE, config, strategy="stepwise")
        assert cold.cache_stats["misses"] > 0
        (_, warm), = validate_module_batch(
            [module], PAPER_PIPELINE, config, strategy="stepwise")
        stats = warm.cache_stats
        assert stats["misses"] == 0  # >= 95% hit rate, trivially
        assert stats["hits"] > 0
        assert 0 < stats["store_lazy_loads"] < stats["disk_loaded"]
        # And the counters surface in the shard ledger too.
        assert warm.shard_stats["store_lazy_loads"] == stats["store_lazy_loads"]
        assert [r.signature() for r in cold.records] == \
               [r.signature() for r in warm.records]


@pytest.mark.skipif(fcntl is None, reason="flock requires fcntl (POSIX)")
class TestJsonSaveLocking:
    def test_lock_holder_blocks_saver(self, tmp_path, pair):
        before, after = pair
        cache = ValidationCache(tmp_path, backend="json")
        cache.put(cache.key(before, after, DEFAULT_CONFIG),
                  validate(before, after, DEFAULT_CONFIG))
        lock_path = tmp_path / (CACHE_FILE_NAME + ".lock")
        holder = open(lock_path, "a+")
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
        saver = threading.Thread(target=cache.save)
        try:
            saver.start()
            time.sleep(0.3)
            # The save is parked on the flock: no file has appeared.
            assert saver.is_alive()
            assert not (tmp_path / CACHE_FILE_NAME).exists()
        finally:
            fcntl.flock(holder.fileno(), fcntl.LOCK_UN)
            holder.close()
        saver.join(timeout=10)
        assert not saver.is_alive()
        assert (tmp_path / CACHE_FILE_NAME).exists()

    def test_two_concurrent_savers_lose_nothing(self, tmp_path, pair,
                                                diamond_source):
        before, after = pair
        other_before = parse_function(diamond_source)
        other_after = clone_function(other_before)
        writer_a = ValidationCache(tmp_path, backend="json")
        writer_b = ValidationCache(tmp_path, backend="json")
        writer_a.put(writer_a.key(before, after, DEFAULT_CONFIG),
                     validate(before, after, DEFAULT_CONFIG))
        writer_b.put(writer_b.key(other_before, other_after, DEFAULT_CONFIG),
                     validate(other_before, other_after, DEFAULT_CONFIG))
        threads = [threading.Thread(target=writer_a.save),
                   threading.Thread(target=writer_b.save)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        # Whichever saver went second merged the first one's entry.
        merged = ValidationCache(tmp_path, backend="json")
        assert merged.loaded == 2
        payload = json.loads((tmp_path / CACHE_FILE_NAME).read_text())
        assert len(payload["entries"]) == 2


def test_result_encoding_length_does_not_depend_on_elapsed():
    from repro.validator import cache as cache_module

    before = parse_function("define i32 @f(i32 %a) {\nentry:\n  %t = add i32 %a, 0\n  ret i32 %t\n}")
    result = validate(before, clone_function(before), DEFAULT_CONFIG)
    lengths = {len(cache_module._encode_result(replace(result, elapsed=elapsed)))
               for elapsed in (0.0, 0.1, 0.123456789, 1 / 3, 2.5e-05, 7.0, 12.75, 345.6)}
    assert len(lengths) == 1
    # Fixed-width text round-trips; entries written with a plain float still read.
    encoded = json.loads(cache_module._encode_result(replace(result, elapsed=0.0123456)))
    assert cache_module._decode_result(encoded).elapsed == pytest.approx(0.0123456)
    encoded["elapsed"] = 0.25
    assert cache_module._decode_result(encoded) == replace(result, elapsed=0.25)
