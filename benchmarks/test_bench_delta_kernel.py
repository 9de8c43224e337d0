"""Delta forest evaluation vs full re-traversal on interactive what-ifs.

A sensitivity bar or a goal-inversion probe re-scores the whole dataset with
one to three drivers perturbed.  The forest kernel keeps the baseline leaf of
every (tree, row) pair the perturbation leaves inside its leaf's feature box
and re-traverses only the rest.  This benchmark times both paths on the same
fitted 4000-row deal-closing model (40 trees of depth 8):

* the *full* arm is the same manager with its forest baseline disabled, so
  every prediction runs the full ``_leaf_values`` traversal;
* the *delta* arm is the manager as the server runs it.

Arms alternate probe by probe so a slow spell of the host hits both.  Every
probe's answer is compared bitwise between the arms, and the share of pairs
a +10% and a +40% change of the top driver moves out of their baseline leaf
is recorded (the re-traversed fraction).

Results are written to ``BENCH_delta_kernel.json`` (path overridable via the
``BENCH_DELTA_OUTPUT`` environment variable) and gated by
``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import copy
import json
import os
import random
import statistics
import time

import numpy as np

from repro.core import WhatIfSession
from repro.core.goal_inversion import invert_goal
from repro.core.perturbation import PerturbationSet
from repro.core.sensitivity import run_sensitivity
from repro.server import to_json_safe

from .conftest import print_table

USE_CASE = "deal_closing"
ROWS = 4000
SENSITIVITY_PROBES = 60
GOAL_INVERSION_PROBES = 5
MIN_SENSITIVITY_SPEEDUP = 2.0


def _canonical(result) -> str:
    return json.dumps(to_json_safe(result), sort_keys=True)


def _probes(drivers: list[str], count: int, seed: int = 0) -> list[PerturbationSet]:
    """Interactive-style what-ifs: 1-3 drivers changed by +-5..40%."""
    rng = random.Random(seed)
    return [
        PerturbationSet.from_mapping(
            {
                driver: float(rng.choice(range(5, 45, 5)) * rng.choice((-1, 1)))
                for driver in rng.sample(drivers, rng.randint(1, 3))
            }
        )
        for _ in range(count)
    ]


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def test_delta_kernel_speedup_and_artifact():
    session = WhatIfSession.from_use_case(
        USE_CASE, dataset_kwargs={"n_prospects": ROWS}, random_state=0
    )
    delta = session.model
    delta.confidence()  # goal inversion reports it; keep the CV fit out of the timings
    full = copy.copy(delta)
    full.forest_baseline = lambda: None
    kernel = delta.model.kernel_
    base = delta.forest_baseline()
    kernel.boxes()

    bitwise = True
    sensitivity = {"full": [], "delta": []}
    for perturbations in _probes(delta.drivers, SENSITIVITY_PROBES):
        answers = {}
        for arm, manager in (("full", full), ("delta", delta)):
            seconds, result = _timed(lambda: run_sensitivity(manager, perturbations))
            sensitivity[arm].append(seconds)
            answers[arm] = _canonical(result)
        bitwise &= answers["full"] == answers["delta"]
        X = perturbations.apply_to_matrix(delta.driver_matrix(), delta.drivers)
        bitwise &= np.array_equal(
            kernel.predict_proba(X, base=base), kernel.predict_proba(X)
        )

    inversion = {"full": [], "delta": []}
    rng = random.Random(1)
    for seed in range(GOAL_INVERSION_PROBES):
        drivers = rng.sample(delta.drivers, 3)
        answers = {}
        for arm, manager in (("full", full), ("delta", delta)):
            seconds, result = _timed(
                lambda: invert_goal(manager, drivers=drivers, n_calls=10, random_state=seed)
            )
            inversion[arm].append(seconds)
            answers[arm] = _canonical(result)
        bitwise &= answers["full"] == answers["delta"]

    top = delta.drivers[int(np.argmax(delta.raw_importances()))]
    moved = {}
    for amount in (10.0, 40.0):
        perturbations = PerturbationSet.from_mapping({top: amount})
        X = perturbations.apply_to_matrix(delta.driver_matrix(), delta.drivers)
        moved[f"+{amount:g}%"] = float(np.mean(kernel._leaf_ids(X) != base.leaves))

    def p50_ms(samples):
        return statistics.median(samples) * 1000.0

    lo, hi = kernel.boxes()
    record = {
        "benchmark": "delta_kernel",
        "dataset": USE_CASE,
        "n_rows": ROWS,
        "n_trees": kernel.n_trees,
        "max_depth": kernel.max_depth,
        "sensitivity_probes": SENSITIVITY_PROBES,
        "goal_inversion_probes": GOAL_INVERSION_PROBES,
        "sensitivity_full_p50_ms": p50_ms(sensitivity["full"]),
        "sensitivity_delta_p50_ms": p50_ms(sensitivity["delta"]),
        "sensitivity_speedup": p50_ms(sensitivity["full"]) / p50_ms(sensitivity["delta"]),
        "goal_inversion_full_p50_ms": p50_ms(inversion["full"]),
        "goal_inversion_delta_p50_ms": p50_ms(inversion["delta"]),
        "goal_inversion_speedup": p50_ms(inversion["full"]) / p50_ms(inversion["delta"]),
        "moved_pair_share_top_driver": {"driver": top, **moved},
        "cached_mib": {
            "leaf_ids": base.leaves.nbytes / 2**20,
            "boxes": (lo.nbytes + hi.nbytes) / 2**20,
        },
        "min_sensitivity_speedup_required": MIN_SENSITIVITY_SPEEDUP,
        "bitwise_identical": bool(bitwise),
    }

    output_path = os.environ.get("BENCH_DELTA_OUTPUT", "BENCH_delta_kernel.json")
    with open(output_path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")

    print_table(
        "delta forest evaluation vs full traversal (p50 ms)",
        [
            {
                "interaction": name,
                "full": record[f"{name}_full_p50_ms"],
                "delta": record[f"{name}_delta_p50_ms"],
                "speedup": record[f"{name}_speedup"],
            }
            for name in ("sensitivity", "goal_inversion")
        ],
    )

    assert record["bitwise_identical"], "delta evaluation changed an answer"
    assert record["sensitivity_speedup"] >= MIN_SENSITIVITY_SPEEDUP, (
        f"expected >= {MIN_SENSITIVITY_SPEEDUP}x sensitivity speedup, got "
        f"{record['sensitivity_speedup']:.2f}x"
    )
