"""Start, measure and stop one ``repro serve`` process group.

Each server runs in a process group of its own, so its pool workers can be
found and counted.  It is stopped through its normal shutdown path: SIGINT
to the leader only.  Whatever is still alive in the group after a grace
period is counted as leaked (a pool worker that outlives its server is a
known defect, and it must show), then killed with ``killpg``.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
LEAK_GRACE_S = 1.0

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2 :].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServerProcess:
    """One server process group; with ``spans_path`` it runs through
    ``launcher.py``, which records layer spans into that file."""

    def __init__(
        self,
        *,
        executor: str = "thread",
        workers: int = 2,
        state_dir: Path | None = None,
        spans_path: Path | None = None,
    ) -> None:
        serve = ["serve", "--port", "0", "--executor", executor, "--workers", str(workers)]
        if state_dir is not None:
            serve += ["--state-dir", str(state_dir)]
        if spans_path is None:
            self.argv = [sys.executable, "-m", "repro", *serve]
        else:
            self.argv = [sys.executable, str(BENCH_DIR / "launcher.py"), str(spans_path), *serve]
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._proc: subprocess.Popen[str] | None = None
        self._reader: threading.Thread | None = None

    def start(self) -> int:
        """Launch and wait for the listening line; returns the port."""
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        self._proc = subprocess.Popen(
            self.argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + START_TIMEOUT_S
        output = []
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=0.05)
            except queue.Empty:
                continue
            if line is None:
                break
            output.append(line)
            match = _LISTENING.search(line)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError("server did not start:\n" + "".join(output))

    def _drain(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the live members of the group, in MB."""
        if self._proc is None:
            return 0.0
        return sum(_vm_hwm_kb(pid) for pid in _group_members(self._proc.pid)) / 1024.0

    def stop(self) -> int:
        """SIGINT the leader, count leftover group members, kill them.

        Returns the number of leaked processes."""
        proc = self._proc
        if proc is None:
            return 0
        self._proc = None
        pgid = proc.pid
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        grace_end = time.monotonic() + LEAK_GRACE_S
        leaked = _group_members(pgid)
        while leaked and time.monotonic() < grace_end:
            time.sleep(0.05)
            leaked = _group_members(pgid)
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while _group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if self._reader is not None:
            self._reader.join(STOP_TIMEOUT_S)
        if proc.stdout is not None:
            proc.stdout.close()
        return len(leaked)
