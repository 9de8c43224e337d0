"""True crash recovery: SIGKILL the serving process, restart, compare bitwise.

Each test spawns ``python -m repro serve --port 0 --state-dir TMP`` as a real
subprocess, drives it over HTTP, kills it with SIGKILL (no atexit, no flush —
the closest a test gets to a power cut), restarts over the same state
directory with ``--recover``, and asserts the durable state came back
bitwise: scenario ledgers, finished job results, share ids.  A job that was
still in flight at the kill must come back ``failed`` with the
``server_restart`` reason — never silently dropped, never hanging a poller.

Runs under both engine executors, since the process executor journals through
the same backend from a different worker topology.

Set ``REPRO_CRASH_ARTIFACT_DIR`` to copy each test's ``state.sqlite3`` there
(CI uploads the directory as an artifact when a leg fails).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
READY_TIMEOUT_S = 90.0
GROUP_EXIT_TIMEOUT_S = 10.0
DRIVER = "Open Marketing Email"

pytestmark = pytest.mark.parametrize("executor", ["thread", "process"])


class ServerProc:
    """One ``repro serve`` subprocess and its parsed base URL."""

    def __init__(self, state_dir: Path, *, executor: str, recover: bool = False):
        argv = [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--workers",
            "2",
            "--executor",
            executor,
            "--state-dir",
            str(state_dir),
        ]
        if recover:
            argv.append("--recover")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        # own process group: the kill must take out the engine's spawned
        # process-pool workers too — they inherit the stdout pipe, and a
        # surviving worker would block the EOF drain below forever.  The pipe
        # is unbuffered bytes so nothing read ahead hides from the raw drain.
        self.proc = subprocess.Popen(
            argv,
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            bufsize=0,
            start_new_session=True,
        )
        self.lines: list[str] = []
        self.base_url = self._await_ready()

    def _await_ready(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        "server exited before binding:\n" + "".join(self.lines)
                    )
                continue
            self.lines.append(line)
            if "listening on http://" in line:
                address = line.split("listening on ", 1)[1].split()[0]
                return address.rstrip("/")
        self.proc.kill()
        raise RuntimeError("server never printed its banner:\n" + "".join(self.lines))

    # ------------------------------------------------------------------ #
    def get(self, path: str, timeout: float = 60.0) -> tuple[int, dict]:
        request = urllib.request.Request(self.base_url + path)
        return self._fetch(request, timeout)

    def post(self, path: str, payload: dict, timeout: float = 60.0) -> tuple[int, dict]:
        request = urllib.request.Request(
            self.base_url + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        return self._fetch(request, timeout)

    @staticmethod
    def _fetch(request, timeout: float) -> tuple[int, dict]:
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read().decode("utf-8"))

    # ------------------------------------------------------------------ #
    def sigkill(self) -> None:
        """The crash: SIGKILL the whole group, no shutdown hooks, no WAL
        checkpoint, no surviving pool workers."""
        self._killpg(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        self._killpg(signal.SIGKILL)  # reap any orphaned pool workers
        if self.proc.poll() is None:
            self.proc.wait(timeout=10)
        self._drain_stdout()

    def _killpg(self, sig: int) -> None:
        try:
            os.killpg(self.proc.pid, sig)
        except ProcessLookupError:
            pass

    def await_group_exit(self) -> bool:
        """Poll until no member of the server's process group is left (the
        kill reaches spawned pool workers asynchronously); False on timeout."""
        deadline = time.monotonic() + GROUP_EXIT_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return True
            time.sleep(0.05)
        return False

    def _drain_stdout(self) -> None:
        stdout = self.proc.stdout
        if stdout is None:
            return
        self.await_group_exit()
        # the raw fd, non-blocking: once the group is gone the pipe holds the
        # rest of the output and then EOF, but never risk hanging on a pipe
        # some straggler still holds
        fd = stdout.fileno()
        os.set_blocking(fd, False)
        chunks = []
        try:
            while chunk := os.read(fd, 65536):
                chunks.append(chunk)
        except BlockingIOError:
            pass
        stdout.close()
        rest = b"".join(chunks).decode("utf-8", "replace")
        self.lines.extend(rest.splitlines(keepends=True))


@pytest.fixture
def state_dir(tmp_path):
    state = tmp_path / "state"
    state.mkdir()
    yield state
    artifact_dir = os.environ.get("REPRO_CRASH_ARTIFACT_DIR")
    if artifact_dir:
        target = Path(artifact_dir)
        target.mkdir(parents=True, exist_ok=True)
        for db in state.glob("*.sqlite3"):
            shutil.copy(db, target / f"{db.stem}-{db.stat().st_ino}.sqlite3")


def populate(server: ServerProc, sid: str) -> dict:
    """Create a session, track two scenarios, finish one job; return the
    pre-crash observations the restarted server must reproduce bitwise."""
    status, created = server.post("/api/v1/sessions", {"session_id": sid})
    assert status == 201, created
    share_id = created["data"]["share_id"]
    status, loaded = server.post(
        "/",
        {
            "action": "load_use_case",
            "session_id": sid,
            "params": {
                "use_case": "deal_closing",
                "dataset_kwargs": {"n_prospects": 80},
                "random_state": 3,
            },
        },
    )
    assert status == 200 and loaded["ok"], loaded
    for pct in (10.0, 25.0):
        status, ran = server.post(
            "/",
            {
                "action": "sensitivity",
                "session_id": sid,
                "params": {
                    "perturbations": {DRIVER: pct},
                    "track_as": f"email +{pct:g}%",
                },
            },
        )
        assert status == 200 and ran["ok"], ran

    status, submitted = server.post(
        f"/api/v1/sessions/{sid}/jobs",
        {"action": "sensitivity", "params": {"perturbations": {DRIVER: 33.0}}},
    )
    assert status == 201, submitted
    job_id = submitted["data"]["job"]["job_id"]
    status, result = server.get(
        f"/api/v1/sessions/{sid}/jobs/{job_id}?result=1&wait=1&timeout_s=60"
    )
    assert status == 200 and result["ok"], result

    status, scenarios = server.get(f"/api/v1/sessions/{sid}/scenarios")
    assert status == 200, scenarios
    return {
        "share_id": share_id,
        "job_id": job_id,
        "job_result": result["data"]["result"],
        "scenarios": scenarios["data"],
    }


def start_sweep(server: ServerProc, sid: str) -> str:
    """Submit a sweep large enough that a kill always beats its completion;
    return its job id."""
    status, inflight = server.post(
        "/",
        {
            "action": "sweep",
            "session_id": sid,
            "params": {
                "space": {
                    "axes": [
                        {"driver": DRIVER, "start": -40, "stop": 40, "step": 1},
                        {"driver": "Call", "start": -40, "stop": 40, "step": 1},
                    ]
                }
            },
        },
    )
    assert status == 200 and inflight["ok"], inflight
    return inflight["data"]["job"]["job_id"]


class TestSigkillRecovery:
    def test_state_survives_sigkill_bitwise(self, state_dir, executor):
        first = ServerProc(state_dir, executor=executor)
        try:
            sid = "s-crash"
            before = populate(first, sid)
            # leave a sweep in flight so the crash interrupts a real job
            inflight_id = start_sweep(first, sid)
            first.sigkill()
        finally:
            first.stop()

        second = ServerProc(state_dir, executor=executor, recover=True)
        try:
            # the eagerly recovered session serves its ledger bitwise
            status, scenarios = second.get(f"/api/v1/sessions/{sid}/scenarios")
            assert status == 200, scenarios
            assert scenarios["data"] == before["scenarios"]

            # the finished job's result is reported verbatim
            status, result = second.get(
                f"/api/v1/sessions/{sid}/jobs/{before['job_id']}?result=1"
            )
            assert status == 200 and result["ok"], result
            assert result["data"]["result"] == before["job_result"]

            # the share id still resolves to the session
            status, resolved = second.get(
                f"/api/v1/sessions/share/{before['share_id']}"
            )
            assert status == 200, resolved
            assert resolved["data"]["session"]["session_id"] == sid

            # the job killed mid-flight is failed, not dropped or hanging
            status, interrupted = second.get(
                f"/api/v1/sessions/{sid}/jobs/{inflight_id}"
            )
            assert status == 200, interrupted
            assert interrupted["data"]["job"]["state"] == "failed"
            assert interrupted["data"]["job"]["error"] == "server_restart"

            # recovery counters surface through the persistence route
            status, persist = second.get("/api/v1/persistence")
            assert status == 200, persist
            assert persist["data"]["recovered_sessions"] >= 1
            assert persist["data"]["jobs"]["interrupted_total"] >= 1
            assert persist["data"]["persistence"]["kind"] == "sqlite"
        finally:
            second.stop()
        assert not any("Traceback" in line for line in second.lines), second.lines

    def test_lazy_recovery_without_recover_flag(self, state_dir, executor):
        first = ServerProc(state_dir, executor=executor)
        try:
            sid = "s-lazy"
            before = populate(first, sid)
            first.sigkill()
        finally:
            first.stop()

        second = ServerProc(state_dir, executor=executor)
        try:
            # first touch rebuilds the session transparently
            status, scenarios = second.get(f"/api/v1/sessions/{sid}/scenarios")
            assert status == 200, scenarios
            assert scenarios["data"] == before["scenarios"]
        finally:
            second.stop()


class TestParentDeath:
    def test_leader_sigkill_leaves_no_group_member(self, state_dir, executor):
        """Killing only the serving process (not its group) must not orphan
        the process pool's workers: they notice the parent died and exit."""
        server = ServerProc(state_dir, executor=executor)
        try:
            populate(server, "s-orphan")  # its job starts the process pool
            os.kill(server.proc.pid, signal.SIGKILL)
            server.proc.wait(timeout=30)
            assert server.await_group_exit(), "a group member outlived the leader"
        finally:
            server.stop()

    def test_leader_sigkill_mid_job_leaves_no_group_member(self, state_dir, executor):
        """Workers busy with a job when the leader dies must neither finish
        the queued units nor hang on results nobody will read."""
        server = ServerProc(state_dir, executor=executor)
        try:
            sid = "s-orphan-busy"
            populate(server, sid)
            job_id = start_sweep(server, sid)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, polled = server.get(f"/api/v1/sessions/{sid}/jobs/{job_id}")
                assert status == 200, polled
                if polled["data"]["job"]["state"] == "running":
                    break
                time.sleep(0.02)
            assert polled["data"]["job"]["state"] == "running", polled
            os.kill(server.proc.pid, signal.SIGKILL)
            server.proc.wait(timeout=30)
            assert server.await_group_exit(), "a group member outlived the leader"
        finally:
            server.stop()
