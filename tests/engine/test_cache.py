"""Tests for the content-addressed solve cache."""

import hashlib
import pickle

import pytest

from repro.core import FgBgModel
from repro.engine import EngineConfig, SolveCache, SweepEngine, solve_key
from repro.processes import PoissonProcess

MU = 1 / 6.0


def model(rho=0.3, p=0.3, **kwargs):
    return FgBgModel(
        arrival=PoissonProcess(rho * MU),
        service_rate=MU,
        bg_probability=p,
        **kwargs,
    )


class TestSolveKey:
    def test_deterministic(self):
        m = model()
        assert SolveCache.key(m) == SolveCache.key(model())

    def test_depends_on_model_content(self):
        assert SolveCache.key(model(p=0.3)) != SolveCache.key(model(p=0.6))

    def test_key_recipe_matches_existing_disk_caches(self):
        # The solver name and tolerance stay hashed in as constant bytes,
        # so caches written while solves took those parameters still hit.
        fp = model().fingerprint()
        h = hashlib.sha256()
        h.update(b"format-4:")
        h.update(fp.encode())
        h.update(b"logarithmic-reduction")
        h.update((1e-12).hex().encode())
        assert solve_key(fp) == h.hexdigest()

    def test_construction_path_irrelevant(self):
        # None (defaulting to service_rate) and an explicit equal rate
        # describe the same chain, so they share a cache entry.
        a = model(idle_wait_rate=None)
        b = model(idle_wait_rate=MU)
        assert SolveCache.key(a) == SolveCache.key(b)

    def test_unversioned_entry_is_a_miss_and_resolved(self, tmp_path):
        # Keys written before the format version was hashed in: a plain
        # sha256 of fingerprint, algorithm and tolerance.  Plant another
        # model's solution there -- loading it would serve wrong metrics.
        m = model(p=0.3)
        h = hashlib.sha256()
        h.update(m.fingerprint().encode())
        h.update(b"logarithmic-reduction")
        h.update((1e-12).hex().encode())
        legacy = tmp_path / f"{h.hexdigest()}.pkl"
        legacy.write_bytes(pickle.dumps(model(p=0.6).solve()))

        engine = SweepEngine(EngineConfig(cache_dir=str(tmp_path)))
        solution = engine.solve(m)
        assert solution.as_dict() == pytest.approx(m.solve().as_dict(), nan_ok=True)
        assert engine.stats.cache_hits == 0
        assert engine.stats.solver_calls == 1
        assert engine.stats.failures == []
        assert legacy.exists()

    def test_format_2_entry_is_a_miss(self, tmp_path):
        # Format 3 added QBDProcess.boundary_levels; a format-2 pickle
        # holds a QBDProcess without it and must never be served.
        m = model(p=0.3)
        h = hashlib.sha256()
        h.update(b"format-2:")
        h.update(m.fingerprint().encode())
        h.update(b"logarithmic-reduction")
        h.update((1e-12).hex().encode())
        assert h.hexdigest() != SolveCache.key(m)
        stale = tmp_path / f"{h.hexdigest()}.pkl"
        stale.write_bytes(pickle.dumps(model(p=0.6).solve()))

        engine = SweepEngine(EngineConfig(cache_dir=str(tmp_path)))
        engine.solve(m)
        assert engine.stats.cache_hits == 0
        assert engine.stats.solver_calls == 1


class TestMemoryCache:
    def test_miss_then_hit(self):
        cache = SolveCache()
        m = model()
        key = SolveCache.key(m)
        assert cache.get(key) is None
        solution = m.solve()
        cache.put(key, solution)
        assert cache.get(key) is solution
        assert cache.hits == 1
        assert cache.misses == 1
        assert key in cache
        assert len(cache) == 1

    def test_clear(self):
        cache = SolveCache()
        key = SolveCache.key(model())
        cache.put(key, model().solve())
        cache.clear()
        assert cache.get(key) is None


class TestDiskCache:
    def test_persists_across_instances(self, tmp_path):
        m = model()
        key = SolveCache.key(m)
        solution = m.solve()

        first = SolveCache(tmp_path / "cache")
        first.put(key, solution)

        second = SolveCache(tmp_path / "cache")
        loaded = second.get(key)
        assert loaded is not None
        assert loaded.fg_queue_length == solution.fg_queue_length
        assert loaded.bg_completion_rate == solution.bg_completion_rate

    def test_clear_keeps_disk_entries(self, tmp_path):
        cache = SolveCache(tmp_path)
        key = SolveCache.key(model())
        cache.put(key, model().solve())
        cache.clear()
        assert len(cache) == 0
        assert key in cache  # still on disk
        assert cache.get(key) is not None

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "a" / "b"
        cache = SolveCache(target)
        assert cache.directory == target
        assert target.is_dir()

    def test_loaded_solution_metrics_match(self, tmp_path):
        m = model(rho=0.5, p=0.6)
        solution = m.solve()
        cache = SolveCache(tmp_path)
        cache.put(SolveCache.key(m), solution)
        cache.clear()
        loaded = cache.get(SolveCache.key(m))
        assert loaded.as_dict() == pytest.approx(solution.as_dict(), nan_ok=True)


class TestStaleTmpSweep:
    """Orphaned ``*.pkl.tmp.<pid>`` files are quarantined on open."""

    def plant(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"torn write")
        return path

    def test_orphans_swept_and_quarantined_on_open(self, tmp_path):
        SolveCache(tmp_path)  # create the directory
        # 999999999 is above the kernel's default pid_max: never alive.
        dead = self.plant(tmp_path, "aaaa.pkl.tmp.999999999")
        unparsable = self.plant(tmp_path, "bbbb.pkl.tmp.notapid")
        cache = SolveCache(tmp_path)
        assert cache.stale_tmp_swept == 2
        assert not dead.exists()
        assert not unparsable.exists()
        orphans = sorted(p.name for p in tmp_path.glob("*.orphan"))
        assert orphans == [
            "aaaa.pkl.tmp.999999999.orphan",
            "bbbb.pkl.tmp.notapid.orphan",
        ]

    def test_live_writer_tmp_left_alone(self, tmp_path):
        import os

        SolveCache(tmp_path)
        live = self.plant(tmp_path, f"cccc.pkl.tmp.{os.getpid()}")
        cache = SolveCache(tmp_path)
        assert cache.stale_tmp_swept == 0
        assert live.exists()

    def test_orphans_never_served(self, tmp_path):
        self.plant(tmp_path, "dddd.pkl.tmp.999999999")
        cache = SolveCache(tmp_path)
        assert cache.get("dddd") is None
        assert "dddd" not in cache

    def test_memory_only_cache_sweeps_nothing(self):
        assert SolveCache().stale_tmp_swept == 0


class TestQuarantine:
    def test_quarantine_moves_entry_aside(self, tmp_path):
        m = model()
        key = SolveCache.key(m)
        cache = SolveCache(tmp_path)
        cache.put(key, m.solve())
        target = cache.quarantine(key)
        assert target == tmp_path / f"{key}.pkl.corrupt"
        assert target.exists()
        assert cache.quarantined == 1
        assert key not in cache
        assert cache.get(key) is None

    def test_quarantine_without_disk_entry(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.quarantine("nope") is None
        assert cache.quarantined == 1
