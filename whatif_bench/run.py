"""End-to-end what-if benchmark: a real ``repro serve`` driven over HTTP.

    python3 whatif_bench/run.py --workload interactive --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` for each one's rationale):

* ``interactive``  two analysts on one shared 4000-row deal-closing model:
  sensitivity, per-data analysis and goal inversion (thread executor);
* ``sweep_stream`` one analyst streaming 135-scenario sweeps over SSE on a
  2000-row model (process executor, two workers);
* ``durable``      two analysts cycling short sessions on ~200-row data with
  tracked scenarios, versions and share ids (SQLite state).

With ``--trace 0`` the run sets up ``PASSES`` servers one after another, each
from scratch, and measures each for an equal share of ``--seconds``; the
streams continue from one server to the next.  A window disturbed by the
hypervisor (see ``STEAL_LIMIT_PCT``) may be timed again.
End-to-end metrics, all measured by the client:

==================  =====  ==================================================
``setup_s``         s      launch until warm-up ends (median of the passes)
``requests_per_s``  1/s    completed HTTP requests per second of timed
                           traffic, all clients
``latency_p50_ms``  ms     median of the headline interaction: sensitivity
                           (interactive), submit to result read
                           (sweep_stream), one session cycle (durable)
``peak_rss_mb``     MB     sum of ``VmHWM`` over the server's process group
                           (median of the passes)
==================  =====  ==================================================

With ``--trace 1`` the same traffic runs twice, untraced and then through
``launcher.py``, which wraps each layer's public functions in spans; the
per-layer metrics of ``layers.py`` come from the traced pass.

The last line of standard output is the result object; the line before it
holds every request kind's sample count, p50 (20 samples or more) and p95
(200 or more), each pass's set-up time and steal shares, ``failed_ratio``,
the reasons for failures and ``leaked_processes``.  A failed request or answer
check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import uuid
from pathlib import Path
from typing import Any

import layers
from httpclient import Client
from measure import Tally, min_samples, percentile
from serverproc import ROOT
from spans import load_spans
from workloads import WORKLOADS, Recorder, Workload

SRC = ROOT / "src"
RUNS_DIR = ROOT / ".whatif_bench_runs"

#: Servers per untraced run.  Spreading the timed traffic over the whole run
#: means a slow spell of the host moves a third of the samples, not all.
PASSES = 3
#: A window during which the hypervisor gave more than this share of the CPU
#: to other guests (steal time, which slows every metric at once) is timed
#: again on the same server; a run has ``SPARE_WINDOWS`` such retries.
STEAL_LIMIT_PCT = 3.0
SPARE_WINDOWS = 2

METRICS = "/api/v1/metrics?format=json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def run_pass(
    workload: Workload,
    plan: dict[str, Any],
    tally: Tally,
    run_dir: Path,
    *,
    seed: int,
    seconds: float,
    positions: list[int] | None = None,
    spare_windows: int = 0,
    spans_path: Path | None = None,
) -> dict[str, Any]:
    """Set up one server, time it for ``seconds`` and check its answers.

    A window during which the hypervisor took more than ``STEAL_LIMIT_PCT``
    of the CPU is timed again on the same server, up to ``spare_windows``
    times; ``result["rec"]`` holds the last window."""
    run_dir.mkdir(parents=True)
    server = workload.server(run_dir, spans_path)
    started = time.perf_counter()
    result: dict[str, Any] = {"discarded_steal_pct": []}
    try:
        client = Client(server.start())
        rec = Recorder(tally, positions)
        ctx = workload.warm(rec, client, plan)
        result["setup_s"] = time.perf_counter() - started
        result["lag_before"] = layers.bus_lag(client.request("GET", METRICS).data)
        workload.drive(rec, client, plan, ctx, seconds)
        discarded = result["discarded_steal_pct"]
        while rec.steal_pct > STEAL_LIMIT_PCT and len(discarded) < spare_windows:
            discarded.append(rec.steal_pct)
            rec = Recorder(tally, rec.positions)
            workload.drive(rec, client, plan, ctx, seconds)
        result["rec"] = rec
        result["lag_after"] = layers.bus_lag(client.request("GET", METRICS).data)
        stats = client.request("POST", "/", {"action": "server_stats"})
        result["cache"] = stats.data["model_cache"] if stats.ok else {}
        result["peak_rss_mb"] = server.peak_rss_mb()
        workload.check(rec, client, plan, ctx, seed)
    finally:
        result["leaked_processes"] = server.stop()
    return result


def describe(
    workload: Workload, samples: dict[str, list[float]], tally: Tally, leaked: int
) -> dict[str, Any]:
    """The detail line; a timing with too few samples for its rule is left out."""
    kinds = sorted(samples.items())
    return {
        "workload": workload.name,
        "why": workload.why,
        "samples": {kind: len(values) for kind, values in kinds},
        **{
            f"p{q * 100:g}_ms": {
                kind: percentile(values, q)
                for kind, values in kinds
                if len(values) >= min_samples(q)
            }
            for q in (0.5, 0.95)
        },
        "failed_ratio": tally.failed_ratio,
        "failures": dict(tally.reasons),
        "leaked_processes": leaked,
    }


def timed_run(
    workload: Workload, seed: int, seconds: float, run_dir: Path, tally: Tally
) -> tuple[dict, dict]:
    plan = workload.plan(seed)
    positions: list[int] = []
    passes: list[dict[str, Any]] = []
    for index in range(PASSES):
        spare = SPARE_WINDOWS - sum(len(p["discarded_steal_pct"]) for p in passes)
        passes.append(
            run_pass(
                workload, plan, tally, run_dir / f"pass{index}", seed=seed,
                seconds=seconds / PASSES, positions=positions, spare_windows=spare,
            )
        )
    recs = [p["rec"] for p in passes]
    samples: dict[str, list[float]] = {}
    for rec in recs:
        for kind, values in rec.samples.items():
            samples.setdefault(kind, []).extend(values)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "requests_per_s": sum(len(r.calls) for r in recs) / sum(r.measured_s for r in recs),
        "latency_p50_ms": percentile(samples[workload.headline], 0.5),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    detail = describe(workload, samples, tally, sum(p["leaked_processes"] for p in passes))
    detail["passes"] = [
        {
            "setup_s": p["setup_s"],
            "steal_pct": p["rec"].steal_pct,
            "discarded_steal_pct": p["discarded_steal_pct"],
        }
        for p in passes
    ]
    units = END_TO_END_UNITS.items()
    return {name: {"value": values[name], "unit": unit} for name, unit in units}, detail


def traced_run(
    workload: Workload, seed: int, seconds: float, run_dir: Path, tally: Tally
) -> tuple[dict, dict]:
    plan = workload.plan(seed)
    plain = run_pass(workload, plan, tally, run_dir / "untraced", seed=seed, seconds=seconds)
    spans_path = run_dir / "spans.json"
    measured = run_pass(
        workload, plan, tally, run_dir / "traced", seed=seed, seconds=seconds, spans_path=spans_path
    )
    untraced, traced = plain["rec"], measured["rec"]
    base = percentile(untraced.samples[workload.headline], 0.5)
    overhead = 100.0 * (percentile(traced.samples[workload.headline], 0.5) / base - 1.0)
    values = layers.compute(
        workload,
        load_spans(str(spans_path)),
        traced,
        untraced,
        measured["cache"],
        measured["lag_before"],
        measured["lag_after"],
        overhead,
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.UNITS.items()}
    leaked = plain["leaked_processes"] + measured["leaked_processes"]
    detail = describe(workload, untraced.samples, tally, leaked)
    detail["steal_pct"] = untraced.steal_pct
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a shell that starts a job in the background ignores SIGINT for it, and
    # an ignored signal stays ignored in every child; servers are stopped with
    # SIGINT, so give it back its default action before starting any
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC.relative_to(ROOT)}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    run_dir = RUNS_DIR / f"{workload.name}-{args.seed}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    tally = Tally()
    try:
        run = traced_run if args.trace else timed_run
        metrics, detail = run(workload, args.seed, args.seconds, run_dir, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass
    correct = tally.failed == 0
    print(json.dumps(detail))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
