"""The three analyst workloads: request streams, warm-up, traffic, answer checks.

Every workload is a closed loop (an analyst waits for each answer before the
next request) with at most two client threads, one per CPU.  Its request
stream is generated from the seed before the server starts, so the server
receives only generated requests.  Warm-up runs the first request of each
kind, so model fits, the first cross-validated confidence and the process
pool's spawn fall into set-up, which users pay once per model.

Each workload names its *headline* interaction, whose median is
``latency_p50_ms``; every other request kind's timings are printed on the
line before the result.
"""

from __future__ import annotations

import functools
import json
import random
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from httpclient import Client, Reply
from measure import Tally
from serverproc import ServerProcess

#: Perturbation magnitudes (percent) an analyst tries: ±5 … ±40.
MAGNITUDES = tuple(range(5, 45, 5))
#: Generated interactions per client; far more than a run can complete.
STREAM_LENGTH = 4000


def use_case_drivers(key: str) -> list[str]:
    """The driver columns a session on ``key`` selects (as ``from_use_case``)."""
    from repro.datasets import get_use_case

    use_case = get_use_case(key)
    frame = use_case.load(**use_case.size_kwargs(40))
    return [
        name
        for name in frame.numeric_columns()
        if name != use_case.kpi and name not in use_case.excluded_drivers
    ]


@functools.cache
def reference_session(key: str, rows: int):
    """In-process session identical to a server session on (key, rows)."""
    from repro.core import WhatIfSession
    from repro.datasets import get_use_case

    kwargs = get_use_case(key).size_kwargs(rows)
    return WhatIfSession.from_use_case(key, dataset_kwargs=kwargs, random_state=0)


def canonical(payload: Any) -> str:
    """Byte-exact form of a JSON payload (float reprs round-trip exactly)."""
    from repro.server import to_json_safe

    return json.dumps(to_json_safe(payload), sort_keys=True)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the machine so far, from ``/proc/stat``."""
    with open("/proc/stat", encoding="utf-8") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def perturbation(rng: random.Random, drivers: list[str], count: int) -> dict[str, float]:
    return {
        driver: float(rng.choice(MAGNITUDES) * rng.choice((-1, 1)))
        for driver in rng.sample(drivers, count)
    }


class Recorder:
    """Counts every request; keeps timings only while the window is open."""

    def __init__(self, tally: Tally | None = None, positions: list[int] | None = None) -> None:
        self.tally = tally if tally is not None else Tally()
        self.timing = False
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.calls: list[tuple[str, float, float | None]] = []  # kind, wall, server
        self.kept: dict[str, list[Any]] = defaultdict(list)
        self.window = (0.0, 0.0)
        self.measured_s = 0.0
        self.steal_ticks = [0, 0]  # steal and total CPU ticks inside windows
        #: next item of each client's stream; share it to continue the streams
        self.positions = positions if positions is not None else []
        self._lock = threading.Lock()

    def send(
        self, client: Client, kind: str, method: str, path: str, body: dict | None = None
    ) -> Reply:
        reply = client.request(method, path, body)
        reason = reply.error or f"{kind}: status {reply.status} {reply.payload.get('error', '')}"
        self.tally.request(reply.ok, reason)
        if self.timing:
            with self._lock:
                self.calls.append((kind, reply.wall_ms, reply.server_ms))
                if reply.ok:
                    self.samples[kind].append(reply.wall_ms)
        return reply

    def act(self, client: Client, action: str, session_id: str, **params: Any) -> Reply:
        return self.send(
            client,
            action,
            "POST",
            "/",
            {"action": action, "session_id": session_id, "params": params},
        )

    def count_stream(self, wall_ms: float) -> None:
        """An SSE subscription: a request without an envelope."""
        if self.timing:
            with self._lock:
                self.calls.append(("events", wall_ms, None))

    def sample(self, kind: str, wall_ms: float) -> None:
        if self.timing:
            with self._lock:
                self.samples[kind].append(wall_ms)

    def keep(self, kind: str, item: Any) -> None:
        if self.timing:
            with self._lock:
                self.kept[kind].append(item)

    def check(self, ok: bool, reason: str) -> bool:
        if not ok:
            self.tally.mismatch(reason)
        return ok

    @property
    def steal_pct(self) -> float:
        """Share of the machine's CPU time the hypervisor gave to other guests
        while this recorder was timing."""
        return 100.0 * self.steal_ticks[0] / max(1, self.steal_ticks[1])

    def closed_loop(
        self, streams: list[list[Any]], step: Callable[[int, Any], None], seconds: float
    ) -> None:
        """One thread per stream; each sends its next item after the last
        answer, until ``seconds`` have passed.  A later window with the same
        ``positions`` resumes each stream where the last one stopped; ``kept``
        holds the answers of this window only."""
        errors: list[BaseException] = []
        finished: list[float] = []
        if not self.positions:
            self.positions.extend([0] * len(streams))
        self.kept.clear()
        start = time.perf_counter()
        deadline = start + seconds

        def client(index: int) -> None:
            try:
                stream = streams[index]
                while time.perf_counter() < deadline:
                    if self.positions[index] >= len(stream):
                        raise RuntimeError(f"request stream {index} ran out before the deadline")
                    item = stream[self.positions[index]]
                    self.positions[index] += 1
                    step(index, item)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
            finished.append(time.perf_counter())

        steal, total = cpu_ticks()
        self.timing = True
        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(streams))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.timing = False
        self.window = (start, max(finished))
        self.measured_s += self.window[1] - start
        steal_after, total_after = cpu_ticks()
        self.steal_ticks[0] += steal_after - steal
        self.steal_ticks[1] += total_after - total
        if errors:
            raise errors[0]


class Workload:
    """One traffic mix: ``plan`` generates every request from the seed,
    ``warm`` sets a fresh server up, ``drive`` runs the timed closed loop and
    ``check`` compares answers after the window closes."""

    name = ""
    why = ""  # the one-line reason this workload exists
    headline = ""  # request kind whose median is latency_p50_ms
    executor = "thread"
    workers = 2
    durable_state = False

    def plan(self, seed: int) -> dict[str, Any]:
        raise NotImplementedError

    def server(self, run_dir: Path, spans_path: Path | None = None) -> ServerProcess:
        state_dir = run_dir / "state" if self.durable_state else None
        return ServerProcess(
            executor=self.executor, workers=self.workers, state_dir=state_dir, spans_path=spans_path
        )

    def warm(self, rec: Recorder, client: Client, plan: dict[str, Any]) -> dict[str, Any]:
        raise NotImplementedError

    def drive(
        self, rec: Recorder, client: Client, plan: dict, ctx: dict, seconds: float
    ) -> None:
        raise NotImplementedError

    def check(
        self, rec: Recorder, client: Client, plan: dict[str, Any], ctx: dict[str, Any], seed: int
    ) -> None:
        raise NotImplementedError

    def interactions(self, rec: Recorder) -> int:
        """Interactions completed while timing (headline ones by default)."""
        return len(rec.samples[self.headline])


def _expect(reply: Reply, what: str) -> Any:
    """The reply's data; a failed reply aborts the set-up."""
    if not reply.ok:
        raise RuntimeError(f"{what} failed: {reply.status} {reply.error or reply.payload}")
    return reply.data


# --------------------------------------------------------------------------- #
class Interactive(Workload):
    """Two analysts probe one shared 4000-row deal-closing model."""

    name = "interactive"
    why = (
        "forest traversal is ~90% of a sensitivity request, so a kernel change "
        "shows here; per_data scores one row, so transport dominates it and a "
        "kernel change should leave it flat"
    )
    headline = "sensitivity"
    use_case = "deal_closing"
    rows = 4000
    clients = 2
    #: One block by count: 80% sensitivity, 16% per_data, 4% goal inversion,
    #: shuffled, so every stretch of a run sees the same mix.
    block = ("sensitivity",) * 20 + ("per_data",) * 4 + ("goal_inversion",)

    def interactions(self, rec: Recorder) -> int:
        return len(rec.calls)  # every request is one interaction

    def _request(self, rng: random.Random, kind: str, drivers: list[str]) -> tuple[str, dict]:
        if kind == "sensitivity":
            return kind, {"perturbations": perturbation(rng, drivers, rng.randint(1, 3))}
        if kind == "per_data":
            return kind, {
                "row_index": rng.randrange(self.rows),
                "perturbations": perturbation(rng, drivers, rng.randint(1, 2)),
            }
        return kind, {
            "goal": rng.choice(("maximize", "minimize")),
            "drivers": rng.sample(drivers, 3),
            "n_calls": 10,
            "optimizer": "bayesian",
        }

    def plan(self, seed: int) -> dict[str, Any]:
        rng = random.Random(seed)
        drivers = use_case_drivers(self.use_case)
        warm, streams = [], []
        for _ in range(self.clients):
            warm.append([self._request(rng, kind, drivers) for kind in dict.fromkeys(self.block)])
            stream = []
            while len(stream) < STREAM_LENGTH:
                kinds = list(self.block)
                rng.shuffle(kinds)
                stream += [self._request(rng, kind, drivers) for kind in kinds]
            streams.append(stream)
        return {"drivers": drivers, "warm": warm, "streams": streams}

    def warm(self, rec: Recorder, client: Client, plan: dict[str, Any]) -> dict[str, Any]:
        sessions = []
        for _ in range(self.clients):
            data = _expect(
                rec.send(
                    client,
                    "create_session",
                    "POST",
                    "/api/v1/sessions",
                    {"use_case": self.use_case, "dataset_kwargs": {"n_prospects": self.rows}},
                ),
                "create_session",
            )
            if data["drivers"] != plan["drivers"]:
                raise RuntimeError("server drivers differ from the planned drivers")
            sessions.append(data["session_id"])
        for session_id, requests in zip(sessions, plan["warm"]):
            for action, params in requests:
                _expect(rec.act(client, action, session_id, **params), action)
        return {"sessions": sessions}

    def drive(self, rec, client, plan, ctx, seconds) -> None:
        def step(index: int, item: tuple[str, dict]) -> None:
            action, params = item
            reply = rec.act(client, action, ctx["sessions"][index], **params)
            if reply.ok:
                rec.keep(action, (params, reply.data))

        rec.closed_loop(plan["streams"], step, seconds)

    def check(self, rec, client, plan, ctx, seed) -> None:
        rng = random.Random(seed + 1)
        reference = reference_session(self.use_case, self.rows)
        for action in ("sensitivity", "per_data"):
            kept = rec.kept[action]
            for params, data in rng.sample(kept, min(8, len(kept))):
                if action == "sensitivity":
                    expected = reference.sensitivity(params["perturbations"])
                else:
                    expected = reference.per_data_analysis(
                        params["row_index"], params["perturbations"]
                    )
                rec.check(canonical(expected) == canonical(data), f"{action} answer differs")
        for params, data in rec.kept["goal_inversion"]:
            rec.check(
                sorted(data.get("driver_changes", {})) == sorted(params["drivers"])
                and data.get("n_evaluations") == params["n_calls"],
                "goal_inversion answer malformed",
            )


# --------------------------------------------------------------------------- #
class SweepStream(Workload):
    """One analyst streams scenario sweeps through the process pool."""

    name = "sweep_stream"
    why = (
        "the only workload on the engine, the worker pool, the grid kernel and "
        "the event bus; one client, because with two the first-chunk median "
        "was bimodal"
    )
    headline = "sweep_result"
    executor = "process"
    use_case = "deal_closing"
    rows = 2000
    #: Levels per axis: 5 x 3 x 9 = 135 scenarios per sweep.
    levels = (5, 3, 9)

    def _space(self, rng: random.Random, drivers: list[str]) -> dict[str, Any]:
        axes = []
        for driver, count in zip(rng.sample(drivers, len(self.levels)), self.levels):
            span = rng.choice((20, 30, 40))
            amounts = [round(-span + 2 * span * i / (count - 1), 6) for i in range(count)]
            axes.append({"driver": driver, "amounts": amounts})
        return {"axes": axes}

    def plan(self, seed: int) -> dict[str, Any]:
        rng = random.Random(seed)
        drivers = use_case_drivers(self.use_case)
        spaces = [self._space(rng, drivers) for _ in range(STREAM_LENGTH + 1)]
        return {"drivers": drivers, "warm": spaces[0], "streams": [spaces[1:]]}

    def _sweep(self, rec: Recorder, client: Client, session_id: str, space: dict) -> dict | None:
        started = time.perf_counter()
        jobs = f"/api/v1/sessions/{session_id}/jobs"
        submit = rec.send(
            client, "submit", "POST", jobs, {"action": "run_sweep", "params": {"space": space}}
        )
        if not submit.ok:
            return None
        job_id = submit.data["job"]["job_id"]
        stream = client.events(f"{jobs}/{job_id}/events")
        rec.tally.request(stream.ok, stream.error or f"sweep stream ended {stream.terminal!r}")
        rec.count_stream(stream.wall_ms)
        result = rec.send(client, "result", "GET", f"{jobs}/{job_id}?result=1")
        finished = time.perf_counter()
        if not (stream.ok and result.ok):
            return None
        first_chunk = stream.first("sweep_chunk")
        if rec.check(first_chunk is not None, "sweep streamed no sweep_chunk"):
            rec.sample("sweep_first_chunk", (first_chunk - started) * 1000.0)
        rec.sample("sweep_result", (finished - started) * 1000.0)
        done = stream.events[-1][1]["data"]
        rec.check(
            canonical(done["result"]) == canonical(result.data["result"]),
            "streamed frontier differs from job_result",
        )
        sweep = {
            "space": space,
            "top": result.data["result"]["top"],
            "job": result.data["job"],
            "trace": done.get("trace", []),
        }
        rec.keep("sweep", sweep)
        return sweep

    def warm(self, rec, client, plan) -> dict[str, Any]:
        data = _expect(
            rec.send(
                client,
                "create_session",
                "POST",
                "/api/v1/sessions",
                {"use_case": self.use_case, "dataset_kwargs": {"n_prospects": self.rows}},
            ),
            "create_session",
        )
        if data["drivers"] != plan["drivers"]:
            raise RuntimeError("server drivers differ from the planned drivers")
        session_id = data["session_id"]
        if self._sweep(rec, client, session_id, plan["warm"]) is None:
            raise RuntimeError("warm-up sweep failed")
        return {"session": session_id}

    def drive(self, rec, client, plan, ctx, seconds) -> None:
        def step(_: int, space: dict) -> None:
            self._sweep(rec, client, ctx["session"], space)

        rec.closed_loop(plan["streams"], step, seconds)

    def check(self, rec, client, plan, ctx, seed) -> None:
        rng = random.Random(seed + 1)
        kept = rec.kept["sweep"]
        for sweep in rng.sample(kept, min(1, len(kept))):
            reply = rec.act(client, "run_sweep", ctx["session"], space=sweep["space"])
            if reply.ok:
                rec.check(
                    canonical(reply.data["top"]) == canonical(sweep["top"]),
                    "synchronous run_sweep frontier differs from the job's",
                )


# --------------------------------------------------------------------------- #
class Durable(Workload):
    """Two analysts cycle short sessions against durable SQLite state."""

    name = "durable"
    why = (
        "at ~200 rows the kernel takes under 1 ms, so journal writes, the "
        "registry, model-cache hits, dataset generation and HTTP dominate, "
        "with writes beside reads; a kernel change should show no change"
    )
    headline = "session_cycle"
    durable_state = True
    clients = 2
    rows = 200
    use_cases = ("marketing_mix", "customer_retention", "deal_closing")
    tracked = 6

    def _cycle(self, rng: random.Random, key: str, drivers: list[str], label: str) -> dict:
        from repro.datasets import get_use_case

        return {
            "use_case": key,
            "dataset_kwargs": get_use_case(key).size_kwargs(self.rows),
            "sensitivity": [
                (f"{label}-s{j}", perturbation(rng, drivers, rng.randint(1, 2)))
                for j in range(self.tracked)
            ],
            "version": f"{label}-v",
        }

    def plan(self, seed: int) -> dict[str, Any]:
        rng = random.Random(seed)
        drivers = {key: use_case_drivers(key) for key in self.use_cases}
        warm = [self._cycle(rng, key, drivers[key], f"w{key}") for key in self.use_cases]
        streams = [
            [
                self._cycle(rng, key, drivers[key], f"c{index}-{n}")
                for n, key in enumerate(rng.choice(self.use_cases) for _ in range(STREAM_LENGTH))
            ]
            for index in range(self.clients)
        ]
        return {"warm": warm, "streams": streams}

    def _run_cycle(self, rec: Recorder, client: Client, cycle: dict) -> bool:
        started = time.perf_counter()
        key = cycle["use_case"]
        created = rec.send(
            client,
            "create_session",
            "POST",
            "/api/v1/sessions",
            {"use_case": key, "dataset_kwargs": cycle["dataset_kwargs"]},
        )
        if not created.ok:
            return False
        session_id, share_id = created.data["session_id"], created.data["share_id"]
        base = f"/api/v1/sessions/{session_id}"
        ok = True
        for name, perturbations in cycle["sensitivity"]:
            reply = rec.act(
                client, "sensitivity", session_id, perturbations=perturbations, track_as=name
            )
            ok &= reply.ok
            if reply.ok:
                rec.keep("sensitivity", (key, perturbations, reply.data))
        version = rec.send(
            client, "create_version", "POST", f"{base}/versions", {"name": cycle["version"]}
        )
        share = rec.send(client, "resolve_share", "GET", f"/api/v1/sessions/share/{share_id}")
        scenarios = rec.send(client, "list_scenarios", "GET", f"{base}/scenarios")
        versions = rec.send(client, "list_versions", "GET", f"{base}/versions")
        closed = rec.send(client, "close_session", "DELETE", base)
        finished = time.perf_counter()
        ok &= all(r.ok for r in (version, share, scenarios, versions, closed))
        if not ok:
            return False
        names = [s["name"] for s in scenarios.data["scenarios"]]
        rec.check(
            names == [name for name, _ in cycle["sensitivity"]],
            "list_scenarios lost or reordered tracked names",
        )
        version_id = version.data["version"]["version_id"]
        rec.check(
            any(v["version_id"] == version_id for v in versions.data["versions"]),
            "created version not listed",
        )
        rec.check(
            share.data["session"]["session_id"] == session_id, "share id resolves elsewhere"
        )
        rec.sample("session_cycle", (finished - started) * 1000.0)
        return True

    def warm(self, rec, client, plan) -> dict[str, Any]:
        for cycle in plan["warm"]:
            if not self._run_cycle(rec, client, cycle):
                raise RuntimeError(f"warm-up cycle on {cycle['use_case']} failed")
        return {}

    def drive(self, rec, client, plan, ctx, seconds) -> None:
        def step(_: int, cycle: dict) -> None:
            self._run_cycle(rec, client, cycle)

        rec.closed_loop(plan["streams"], step, seconds)

    def check(self, rec, client, plan, ctx, seed) -> None:
        rng = random.Random(seed + 1)
        kept = rec.kept["sensitivity"]
        references = {key: reference_session(key, self.rows) for key in self.use_cases}
        for key, perturbations, data in rng.sample(kept, min(8, len(kept))):
            expected = references[key].sensitivity(perturbations)
            rec.check(canonical(expected) == canonical(data), "sensitivity answer differs")


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Interactive(), SweepStream(), Durable())}
