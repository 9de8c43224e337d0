"""Tests of the benchmark harness itself (not of the program).

    python3 -m pytest whatif_bench -q
"""

from __future__ import annotations

import io
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from httpclient import Reply, _read_frames
from measure import Tally, TooFewSamples, min_samples, percentile
from spans import Span, SpanRecorder, roots, self_times
from workloads import Recorder

BENCH_DIR = Path(__file__).resolve().parent


# percentile versus sample count ------------------------------------------- #
def test_minimum_samples_leave_ten_beyond_the_percentile():
    assert min_samples(0.5) == 20
    assert min_samples(0.95) == 200
    assert min_samples(0.99) == 1000


@pytest.mark.parametrize("q, enough", [(0.5, 20), (0.95, 200)])
def test_percentile_refuses_one_sample_short(q, enough):
    values = [float(i) for i in range(enough)]
    percentile(values, q)
    with pytest.raises(TooFewSamples):
        percentile(values[:-1], q)


def test_percentile_interpolates_between_ranks():
    values = [float(i) for i in range(1, 21)]  # 1..20
    assert percentile(values, 0.5) == 10.5
    assert percentile(list(reversed(values)), 0.5) == 10.5


# self time over nested spans ---------------------------------------------- #
def _span(span_id, parent_id, start, end, thread=1):
    return Span(span_id, parent_id, f"s{span_id}", start, end, thread)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 5.0, 9.0),
        _span(4, 3, 6.0, 7.0),
    ]
    assert self_times(spans) == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}
    assert {span_id: top.span_id for span_id, top in roots(spans).items()} == {
        1: 1,
        2: 1,
        3: 1,
        4: 1,
    }


def test_self_times_sum_to_the_root_duration():
    spans = [_span(1, 0, 0.0, 8.0), _span(2, 1, 1.0, 7.0), _span(3, 2, 2.0, 3.0)]
    assert sum(self_times(spans).values()) == pytest.approx(8.0)


def test_recorder_nests_per_thread():
    recorder = SpanRecorder()
    barrier = threading.Barrier(2)

    def inner():
        barrier.wait(timeout=5)
        return 1

    inner = recorder.wrap("inner", inner)
    outer = recorder.wrap("outer", lambda: inner() + 1)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_id = {span.span_id: span for span in recorder.spans}
    inners = [s for s in recorder.spans if s.name == "inner"]
    assert len(inners) == 2
    for span in inners:
        parent = by_id[span.parent_id]
        assert parent.name == "outer" and parent.thread == span.thread
        assert parent.start <= span.start and span.end <= parent.end


def test_recorder_tags_and_survives_exceptions():
    recorder = SpanRecorder()

    def boom(x):
        raise ValueError(x)

    wrapped = recorder.wrap("boom", boom, tag=lambda x: x * 2)
    with pytest.raises(ValueError):
        wrapped(21)
    (span,) = recorder.spans
    assert span.tag == 42 and span.parent_id == 0
    assert recorder.wrap("ok", lambda: 7)() == 7
    assert recorder.spans[-1].parent_id == 0  # the failed call left the stack clean


# failure accounting ------------------------------------------------------- #
class _FakeClient:
    def __init__(self, replies):
        self.replies = list(replies)

    def request(self, method, path, body=None):
        return self.replies.pop(0)


def test_every_failure_kind_counts_against_attempted():
    replies = [
        Reply(200, {"ok": True, "data": {}, "elapsed_ms": 1.0}, 2.0),
        Reply(404, {"ok": False, "error": "missing"}, 2.0),
        Reply(200, {"ok": False, "error": "bad params"}, 2.0),
        Reply(0, {}, 2.0, error="ConnectionRefusedError"),
        Reply(201, {"ok": True, "data": {}}, 2.0),
    ]
    rec = Recorder()
    client = _FakeClient(replies)
    outcomes = [rec.send(client, "x", "GET", "/").ok for _ in replies]
    assert outcomes == [True, False, False, False, True]
    assert (rec.tally.attempted, rec.tally.failed) == (5, 3)
    assert not rec.check(False, "answer differs")  # a wrong answer on an OK reply
    assert (rec.tally.attempted, rec.tally.failed) == (5, 4)
    assert rec.tally.failed_ratio == pytest.approx(0.8)
    assert rec.tally.reasons["answer differs"] == 1


def test_only_window_requests_are_timed():
    rec = Recorder()
    client = _FakeClient([Reply(200, {"ok": True, "elapsed_ms": 1.0}, 3.0)] * 2)
    rec.send(client, "warm", "GET", "/")
    rec.timing = True
    rec.send(client, "hot", "GET", "/")
    assert rec.tally.attempted == 2
    assert dict(rec.samples) == {"hot": [3.0]}
    assert rec.calls == [("hot", 3.0, 1.0)]


def test_a_later_window_resumes_each_stream():
    rec = Recorder()
    seen: list[tuple[int, int]] = []

    def step(index, item):
        seen.append((index, item))
        rec.keep("item", item)
        time.sleep(0.002)

    streams = [list(range(0, 1000)), list(range(1000, 2000))]
    rec.closed_loop(streams, step, 0.05)
    first = list(seen)
    rec.closed_loop(streams, step, 0.05)
    for index in (0, 1):
        items = [item for i, item in seen if i == index]
        assert items == streams[index][: len(items)]  # no repeats, no gaps
    assert len(seen) > len(first) > 0
    assert set(rec.kept["item"]) == {item for _, item in seen[len(first):]}
    assert rec.measured_s >= 0.1


def test_tally_is_consistent_under_concurrency():
    tally = Tally()

    def hammer():
        for i in range(2000):
            tally.request(i % 4 != 0)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert (tally.attempted, tally.failed) == (8000, 2000)


# SSE framing and the missing-program guard -------------------------------- #
def test_sse_frames_stop_at_the_terminal_event():
    raw = (
        b": keepalive\n\n"
        b"id: 1\nevent: queued\ndata: {\"seq\": 1}\n\n"
        b"id: 2\nevent: sweep_chunk\ndata: {\"seq\": 2}\n\n"
        b"id: 3\nevent: done\ndata: {\"seq\": 3}\n\n"
        b"id: 4\nevent: progress\ndata: {\"seq\": 4}\n\n"
    )
    events = []
    _read_frames(io.BytesIO(raw).readline, events.append)
    assert [(kind, data["seq"]) for kind, data, _ in events] == [
        ("queued", 1),
        ("sweep_chunk", 2),
        ("done", 3),
    ]


def test_run_fails_without_the_program_source(tmp_path):
    copy = tmp_path / BENCH_DIR.name
    shutil.copytree(BENCH_DIR, copy, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "durable", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
