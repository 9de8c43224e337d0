"""Per-layer metrics of a traced run.

Inputs: the spans the launcher recorded in the server, the client's
measurement window, the traced pass's recorder (request walls, kept sweep
jobs with their ``trace`` timelines), server counters read before and after
the window, and the untraced pass's recorder (for HTTP overhead and the
tracing overhead).

Unless a row says otherwise, a time is self time summed over the window and
divided by the requests the server handled in it (``ms per request``).
``core.fit_s``, ``core.fit_count`` and ``core.confidence_s`` cover the
server's whole life, because fits and the confidence estimate happen in
set-up.  A layer that does no work on a workload reads 0.

Which end-to-end metric each layer metric should move, and where:

==================================  ==========================================
``server.http_overhead_p50_ms``     client wall minus the envelope's
                                    ``elapsed_ms`` (untraced pass): moves
                                    ``requests_per_s`` on durable, ~0 share
                                    of sensitivity on interactive
``server.handle_self_ms``           ``SystemDServer.handle`` minus what it
                                    calls (session lock wait, registry
                                    lookup): same as above
``server.serialize_ms``             ``to_json_safe`` at each binding site:
                                    ``latency_p50_ms`` on durable
``core.fit_s``, ``core.fit_count``  ``ModelManager.fit``: ``setup_s``, all
``core.confidence_s``               ``ModelManager.confidence``: ``setup_s``
                                    on interactive
``core.model_cache_hit_ratio``      ``server_stats`` counts over the server's
                                    life: ``latency_p50_ms`` on durable
``core.fingerprint_ms``             ``frame_fingerprint``: durable
``core.ledger_record_ms``           ``ScenarioManager.record_*``: durable
``datasets.load_ms``                ``UseCase.load``: durable
``ml.forest_ms``                    ``ForestKernel.predict_proba``/``predict``
                                    self time: ``latency_p50_ms`` and
                                    ``requests_per_s`` on interactive; ~0 on
                                    durable
``ml.forest_calls_per_request``,    counts; a pair is one row through one
``ml.pairs_per_request``            tree: as ``ml.forest_ms``
``ml.forest_share_pct``             forest self time in sensitivity requests
                                    over their client wall: interactive
``optimize.ask_ms``                 ``BayesianOptimizer.ask`` per goal
                                    inversion: ``requests_per_s`` on
                                    interactive
``scenarios.sweep_run_ms``          ``SweepPlanner.run`` per sweep job:
                                    ``latency_p50_ms`` on sweep_stream
``engine.queue_wait_ms``,           the job snapshot's ``wait_seconds`` and
``engine.run_ms``                   ``run_seconds``: sweep_stream (queue wait
                                    ~0 with one client)
``engine.units_per_job``,           worker ``unit``/``ship`` spans of the
``engine.unit_ms``,                 job's ``trace``: first chunk and
``engine.ship_ms``                  ``latency_p50_ms`` on sweep_stream
``engine.pool_busy_ratio``          unit time over workers x run wall (the
                                    concurrency term): sweep_stream
``engine.event_lag_ms``             mean ``repro_bus_deliver_lag_seconds``
                                    over the window: sweep_stream
``persist.write_ms.<kind>``,        ``StateBackend`` writes, ms per write and
``persist.writes_per_cycle``        writes per interaction: durable (the
                                    other workloads write to memory)
``trace.overhead_pct``              traced over untraced ``latency_p50_ms``
``trace.unattributed_pct``          share of enveloped request wall that no
                                    layer span below the dispatcher covers
==================================  ==========================================
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

from launcher import PERSIST_WRITES
from spans import Span, roots, self_times

UNITS = {
    "server.http_overhead_p50_ms": "ms",
    "server.handle_self_ms": "ms",
    "server.serialize_ms": "ms",
    "core.fit_s": "s",
    "core.fit_count": "count",
    "core.confidence_s": "s",
    "core.model_cache_hit_ratio": "ratio",
    "core.fingerprint_ms": "ms",
    "core.ledger_record_ms": "ms",
    "datasets.load_ms": "ms",
    "ml.forest_ms": "ms",
    "ml.forest_calls_per_request": "count",
    "ml.pairs_per_request": "count",
    "ml.forest_share_pct": "%",
    "optimize.ask_ms": "ms",
    "scenarios.sweep_run_ms": "ms",
    "engine.queue_wait_ms": "ms",
    "engine.run_ms": "ms",
    "engine.units_per_job": "count",
    "engine.unit_ms": "ms",
    "engine.ship_ms": "ms",
    "engine.pool_busy_ratio": "ratio",
    "engine.event_lag_ms": "ms",
    "persist.write_ms.save_session": "ms",
    "persist.write_ms.append_scenario": "ms",
    "persist.write_ms.save_version": "ms",
    "persist.write_ms.save_job": "ms",
    "persist.write_ms.delete_session": "ms",
    "persist.writes_per_cycle": "count",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}

#: Spans that are the dispatcher's frame, not a layer's work: time inside
#: them that no deeper span covers counts as unattributed.
FRAME_SPANS = ("server.handle", "server.handler")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def bus_lag(metrics_payload: dict[str, Any]) -> tuple[float, float]:
    """(sum seconds, count) of ``repro_bus_deliver_lag_seconds``."""
    family = metrics_payload.get("metrics", {}).get("repro_bus_deliver_lag_seconds", {})
    total = count = 0.0
    for sample in family.get("samples", []):
        total += float(sample.get("sum", 0.0))
        count += float(sample.get("count", 0.0))
    return total, count


def http_overhead_p50(calls: list[tuple[str, float, float | None]]) -> float:
    """Median of client wall minus the envelope's ``elapsed_ms``."""
    gaps = [wall - server for _, wall, server in calls if server is not None]
    return statistics.median(gaps) if gaps else 0.0


def compute(
    workload: Any,
    spans: list[Span],
    traced: Any,
    untraced: Any,
    cache_stats: dict[str, Any],
    lag_before: tuple[float, float],
    lag_after: tuple[float, float],
    overhead_pct: float,
) -> dict[str, float]:
    start, end = traced.window
    lifetime = defaultdict(list)
    for span in spans:
        lifetime[span.name].append(span)
    own = self_times(spans)
    top = roots(spans)
    in_window = [s for s in spans if start <= s.start <= end]
    handles = [s for s in in_window if s.name == "server.handle"]
    requests = len(handles)

    def per_request(name: str) -> float:
        return _ratio(sum(own[s.span_id] for s in in_window if s.name == name) * 1000.0, requests)

    forest = [s for s in in_window if s.name == "ml.forest"]
    sensitivity_roots = {s.span_id for s in handles if s.tag == "sensitivity"}
    forest_in_sensitivity = sum(
        own[s.span_id] for s in forest if top[s.span_id].span_id in sensitivity_roots
    )
    sensitivity_wall_s = sum(traced.samples["sensitivity"]) / 1000.0
    goal_inversions = sum(1 for s in handles if s.tag == "goal_inversion")
    sweep_runs = [s.duration * 1000.0 for s in in_window if s.name == "scenarios.sweep_run"]

    # attribution: request wall the client saw vs. layer spans under handle roots
    handle_ids = {s.span_id for s in handles}
    attributed = sum(
        own[s.span_id]
        for s in in_window
        if s.name not in FRAME_SPANS and top[s.span_id].span_id in handle_ids
    )
    enveloped_wall = sum(wall for _, wall, server in traced.calls if server is not None) / 1000.0

    jobs = traced.kept.get("sweep", [])
    units = [[r for r in job["trace"] if r.get("name") == "unit"] for job in jobs]
    ships = [
        sum(r["duration_ms"] for r in job["trace"] if r.get("name") == "ship") for job in jobs
    ]
    busy = [
        _ratio(sum(r["duration_ms"] for r in job_units) / 1000.0,
               workload.workers * float(job["job"]["run_seconds"] or 0.0))
        for job, job_units in zip(jobs, units)
    ]
    lag_sum = lag_after[0] - lag_before[0]
    lag_count = lag_after[1] - lag_before[1]

    metrics: dict[str, float] = {
        "server.http_overhead_p50_ms": http_overhead_p50(untraced.calls),
        "server.handle_self_ms": per_request("server.handle"),
        "server.serialize_ms": per_request("server.serialize"),
        "core.fit_s": sum(s.duration for s in lifetime["core.fit"]),
        "core.fit_count": float(len(lifetime["core.fit"])),
        "core.confidence_s": sum(s.duration for s in lifetime["core.confidence"]),
        "core.model_cache_hit_ratio": _ratio(
            cache_stats.get("hits", 0), cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
        ),
        "core.fingerprint_ms": per_request("core.fingerprint"),
        "core.ledger_record_ms": per_request("core.ledger_record"),
        "datasets.load_ms": per_request("datasets.load"),
        "ml.forest_ms": per_request("ml.forest"),
        "ml.forest_calls_per_request": _ratio(len(forest), requests),
        "ml.pairs_per_request": _ratio(sum(s.tag or 0 for s in forest), requests),
        "ml.forest_share_pct": 100.0 * _ratio(forest_in_sensitivity, sensitivity_wall_s),
        "optimize.ask_ms": _ratio(
            sum(own[s.span_id] for s in in_window if s.name == "optimize.ask") * 1000.0,
            goal_inversions,
        ),
        "scenarios.sweep_run_ms": _mean(sweep_runs),
        "engine.queue_wait_ms": _mean(
            [float(job["job"]["wait_seconds"] or 0.0) * 1000.0 for job in jobs]
        ),
        "engine.run_ms": _mean([float(job["job"]["run_seconds"] or 0.0) * 1000.0 for job in jobs]),
        "engine.units_per_job": _mean([float(len(u)) for u in units]),
        "engine.unit_ms": _mean([r["duration_ms"] for u in units for r in u]),
        "engine.ship_ms": _mean(ships),
        "engine.pool_busy_ratio": _mean(busy),
        "engine.event_lag_ms": 1000.0 * _ratio(lag_sum, lag_count),
    }
    writes = 0
    for kind in PERSIST_WRITES:
        calls = [s for s in in_window if s.name == f"persist.{kind}"]
        writes += len(calls)
        metrics[f"persist.write_ms.{kind}"] = _mean([own[s.span_id] * 1000.0 for s in calls])
    metrics["persist.writes_per_cycle"] = _ratio(writes, workload.interactions(traced))
    metrics["trace.overhead_pct"] = overhead_pct
    metrics["trace.unattributed_pct"] = 100.0 * _ratio(
        enveloped_wall - attributed, enveloped_wall
    )
    return metrics
