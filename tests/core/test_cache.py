"""Unit tests for the shared model cache and its fingerprints."""

from __future__ import annotations

import threading

import pytest

from repro.core import ModelCache, WhatIfSession, frame_fingerprint, model_fingerprint
from repro.core.model_manager import ModelManager
from repro.datasets import get_use_case
from repro.frame import DataFrame


@pytest.fixture()
def frame() -> DataFrame:
    return DataFrame(
        {
            "spend": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            "calls": [3.0, 1.0, 4.0, 1.0, 5.0, 9.0],
            "revenue": [2.0, 4.0, 6.0, 8.0, 10.0, 12.0],
        }
    )


class TestFrameFingerprint:
    def test_equal_content_equal_hash(self, frame):
        other = DataFrame(frame.to_dict())
        assert other is not frame
        assert frame_fingerprint(frame) == frame_fingerprint(other)

    def test_value_change_changes_hash(self, frame):
        changed = frame.with_row_updated(0, {"spend": 99.0})
        assert frame_fingerprint(changed) != frame_fingerprint(frame)

    def test_column_name_changes_hash(self, frame):
        renamed = frame.rename({"spend": "budget"})
        assert frame_fingerprint(renamed) != frame_fingerprint(frame)

    def test_string_columns_hash(self):
        a = DataFrame({"region": ["n", "s"], "x": [1.0, 2.0]})
        b = DataFrame({"region": ["n", "e"], "x": [1.0, 2.0]})
        assert frame_fingerprint(a) != frame_fingerprint(b)

    def test_independently_loaded_datasets_match(self):
        use_case = get_use_case("deal_closing")
        first = use_case.load(n_prospects=120)
        second = use_case.load(n_prospects=120)
        assert frame_fingerprint(first) == frame_fingerprint(second)


class TestModelFingerprint:
    def test_sensitive_to_configuration(self, frame):
        from repro.core import KPI

        kpi = KPI.from_frame(frame, "revenue")
        base = model_fingerprint(frame, kpi, ["spend", "calls"], {}, 0)
        assert model_fingerprint(frame, kpi, ["spend", "calls"], {}, 0) == base
        assert model_fingerprint(frame, kpi, ["spend"], {}, 0) != base
        assert model_fingerprint(frame, kpi, ["spend", "calls"], {}, 1) != base
        assert (
            model_fingerprint(frame, kpi, ["spend", "calls"], {"fit_intercept": False}, 0)
            != base
        )


class TestModelCache:
    def test_get_or_create_caches(self):
        cache = ModelCache(max_size=4)
        calls = []
        value = cache.get_or_create("k", lambda: calls.append(1) or "model")
        again = cache.get_or_create("k", lambda: calls.append(1) or "other")
        assert value == again == "model"
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = ModelCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": now "b" is LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats()["evictions"] == 1

    def test_zero_size_disables_caching(self):
        cache = ModelCache(max_size=0)
        assert cache.get_or_create("k", lambda: 1) == 1
        assert cache.get_or_create("k", lambda: 2) == 2
        assert len(cache) == 0

    def test_concurrent_same_key_builds_once(self):
        cache = ModelCache()
        build_count = []
        barrier = threading.Barrier(8)

        def factory():
            build_count.append(1)
            return "model"

        def worker():
            barrier.wait()
            assert cache.get_or_create("shared", factory) == "model"

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(build_count) == 1
        assert cache.stats()["misses"] == 1

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            ModelCache(max_size=-1)

    def test_failing_factory_does_not_leak_creation_lock(self):
        cache = ModelCache()
        for _ in range(3):
            with pytest.raises(RuntimeError):
                cache.get_or_create("bad", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert len(cache._pending) == 0
        # the key is still buildable once the factory recovers
        assert cache.get_or_create("bad", lambda: "model") == "model"

    def test_waiters_recover_after_owner_failure_without_double_build(self):
        cache = ModelCache()
        owner_started = threading.Event()
        release_owner = threading.Event()
        builds = []
        builds_lock = threading.Lock()

        def failing_factory():
            owner_started.set()
            release_owner.wait(timeout=5)
            raise RuntimeError("boom")

        def good_factory():
            with builds_lock:
                builds.append(threading.get_ident())
            return "model"

        def owner():
            with pytest.raises(RuntimeError):
                cache.get_or_create("k", failing_factory)

        def waiter(results):
            results.append(cache.get_or_create("k", good_factory))

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert owner_started.wait(timeout=5)
        results: list[str] = []
        waiters = [threading.Thread(target=waiter, args=(results,)) for _ in range(4)]
        for t in waiters:
            t.start()
        release_owner.set()
        owner_thread.join(timeout=5)
        for t in waiters:
            t.join(timeout=5)
        assert results == ["model"] * 4
        # after the owner's failure, exactly one waiter rebuilt
        assert len(builds) == 1
        assert len(cache._pending) == 0


class TestSessionCacheIntegration:
    def test_driver_toggle_reuses_model(self, frame, monkeypatch):
        fits = []
        original_fit = ModelManager.fit

        def counting_fit(self):
            fits.append(1)
            return original_fit(self)

        monkeypatch.setattr(ModelManager, "fit", counting_fit)
        session = WhatIfSession(frame, "revenue")
        session.sensitivity({"spend": 10.0})
        assert len(fits) == 1
        session.exclude_drivers(["calls"])
        session.sensitivity({"spend": 10.0})
        assert len(fits) == 2
        # toggling the driver back on restores a cached configuration
        session.select_drivers(["spend", "calls"])
        session.sensitivity({"spend": 10.0})
        assert len(fits) == 2
        assert session.model_cache.stats()["hits"] >= 1

    def test_two_sessions_share_one_fit(self, monkeypatch):
        fits = []
        original_fit = ModelManager.fit

        def counting_fit(self):
            fits.append(1)
            return original_fit(self)

        monkeypatch.setattr(ModelManager, "fit", counting_fit)
        shared = ModelCache()
        first = WhatIfSession.from_use_case(
            "deal_closing", dataset_kwargs={"n_prospects": 120}, model_cache=shared
        )
        second = WhatIfSession.from_use_case(
            "deal_closing", dataset_kwargs={"n_prospects": 120}, model_cache=shared
        )
        a = first.sensitivity({"Open Marketing Email": 40.0})
        b = second.sensitivity({"Open Marketing Email": 40.0})
        assert len(fits) == 1
        assert shared.stats()["hits"] == 1
        assert a.perturbed_kpi == b.perturbed_kpi

    def test_private_caches_do_not_share(self, monkeypatch):
        fits = []
        original_fit = ModelManager.fit

        def counting_fit(self):
            fits.append(1)
            return original_fit(self)

        monkeypatch.setattr(ModelManager, "fit", counting_fit)
        first = WhatIfSession.from_use_case(
            "deal_closing", dataset_kwargs={"n_prospects": 120}
        )
        second = WhatIfSession.from_use_case(
            "deal_closing", dataset_kwargs={"n_prospects": 120}
        )
        first.sensitivity({"Open Marketing Email": 40.0})
        second.sensitivity({"Open Marketing Email": 40.0})
        assert len(fits) == 2


class TestSessionModelKey:
    """``WhatIfSession.model_key`` is memoised until the configuration changes."""

    def test_job_submits_hash_the_frame_once(self, monkeypatch):
        import repro.core.cache as cache_module
        from repro.server import SystemDServer

        hashes = []
        original = cache_module.frame_fingerprint

        def counting(frame):
            hashes.append(1)
            return original(frame)

        monkeypatch.setattr(cache_module, "frame_fingerprint", counting)
        server = SystemDServer(engine_workers=1)
        try:
            loaded = server.request(
                "load_use_case", use_case="deal_closing", dataset_kwargs={"n_prospects": 80}
            )
            assert loaded.ok, loaded.error
            for amount in range(5):
                submitted = server.request(
                    "submit",
                    {"action": "sensitivity", "params": {"perturbations": {"Call": 10.0 * amount}}},
                )
                assert submitted.ok, submitted.error
                job_id = submitted.data["job"]["job_id"]
                assert server.request("job_result", job_id=job_id, timeout_s=60).ok
        finally:
            server.close()
        assert len(hashes) == 1

    def test_every_mutation_changes_the_key(self, frame):
        frame = frame.with_column(name="won", values=[0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        session = WhatIfSession(frame, "revenue", drivers=["spend", "calls"])

        def fresh_key() -> str:
            return model_fingerprint(
                session.frame, session.kpi, session.drivers, {}, 0
            )

        keys = [session.model_key()]
        assert session.model_key() is keys[0]  # memoised, not recomputed
        for mutate in (
            lambda: session.set_kpi("won"),
            lambda: session.select_drivers(["spend", "calls", "revenue"]),
            lambda: session.exclude_drivers(["calls"]),
            lambda: session.add_formula_driver("double", "spend * 2"),
        ):
            mutate()
            assert session.model_key() == fresh_key()
            assert session.model_key() not in keys
            keys.append(session.model_key())
