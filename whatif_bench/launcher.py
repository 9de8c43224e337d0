"""Run ``repro serve`` with the public functions of each layer wrapped in spans.

    python whatif_bench/launcher.py SPANS.json serve --port 0 ...

Everything after the span file is passed to ``repro.cli.main`` unchanged.
When the server stops (SIGINT ends ``serve_forever``), the recorded spans
are written to ``SPANS.json``.  Worker processes of the process executor
start from a fresh import and are not wrapped: their numbers come from the
``unit``/``ship`` spans the program already puts in each job's trace.
"""

from __future__ import annotations

import sys
from typing import Any

from spans import SpanRecorder

PERSIST_WRITES = ("save_session", "append_scenario", "save_version", "save_job", "delete_session")


def _action(server: Any, request: Any = None, *args: Any) -> str:
    if isinstance(request, dict):
        return str(request.get("action", "?"))
    return str(getattr(request, "action", "?"))


def _pairs(kernel: Any, X: Any, *args: Any) -> int:
    # one pair is one row through one tree
    return int(X.shape[0]) * int(kernel.n_trees)


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public functions (see the table in ``run.py``)."""
    from repro.core import cache, model_manager, scenario
    from repro.datasets import registry
    from repro.engine import engine
    from repro.ml import kernel
    from repro.optimize import bayesian
    from repro.persist import backend
    from repro.scenarios import planner
    from repro.server import app, handlers

    def patch(owner: Any, attr: str, name: str, tag: Any = None) -> None:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), tag))

    patch(app.SystemDServer, "handle", "server.handle", _action)
    for table in (handlers.HANDLERS, handlers.SERVER_HANDLERS):
        for action in table:
            table[action] = recorder.wrap("server.handler", table[action])
    # to_json_safe is imported by name into each module that calls it
    for module in (app, handlers, engine):
        patch(module, "to_json_safe", "server.serialize")
    patch(model_manager.ModelManager, "fit", "core.fit")
    patch(model_manager.ModelManager, "confidence", "core.confidence")
    patch(cache, "frame_fingerprint", "core.fingerprint")
    for record in ("record_sensitivity", "record_goal_inversion", "record_sweep"):
        patch(scenario.ScenarioManager, record, "core.ledger_record")
    patch(registry.UseCase, "load", "datasets.load")
    patch(kernel.ForestKernel, "predict_proba", "ml.forest", _pairs)
    patch(kernel.ForestKernel, "predict", "ml.forest", _pairs)
    patch(bayesian.BayesianOptimizer, "ask", "optimize.ask")
    patch(planner.SweepPlanner, "run", "scenarios.sweep_run")
    for write in PERSIST_WRITES:
        patch(backend.StateBackend, write, f"persist.{write}")


def main(argv: list[str]) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
