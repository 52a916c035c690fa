"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, so every solve pays plan
and program compilation exactly as a ``repro run`` does.  It prints one JSON
object as its last line of standard output:

* ``setup_samples`` — seconds of each set-up repetition;
* ``solve_s``       — wall time of the solve (untraced unless ``--trace 1``);
* ``bond_s``        — seconds of each bond optimisation, in order (solves);
* ``energies``      — ``[model key, energy]`` of every completed run;
* ``statuses``      — outcome of every run decided;
* ``peak_rss_mb``   — peak resident memory of the solving process(es);
* ``layers``        — per-layer metrics (traced repetitions only).

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 dmrgbench/worker.py --workload spins-list --seed 1 --trace 0 \\
        --tmp .dmrgbench_tmp/rep-0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from instrument import (install, layer_metrics, median, sum_report_counters)
from tracer import LayerTracer, installed_wrappers
from workloads import WORKLOADS, model_key, thread_budget

#: set-up repetitions per process (the fastest over all is reported)
SETUP_SAMPLES = 9
#: campaign set-up is sub-millisecond: each sample times this many in a row
CAMPAIGN_SETUP_BATCH = 25


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def solve_setup_seconds(spec) -> list:
    """Time the work ``execute_run`` does before its first sweep."""
    import numpy as np
    from repro.exp.runner import build_backend, build_initial_state
    from repro.models import build_model
    from repro.mps import build_mpo

    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        _, sites, opsum, config_state = build_model(spec.model,
                                                    **dict(spec.params))
        build_mpo(opsum, sites)
        build_initial_state(spec, sites, config_state,
                            np.random.default_rng(spec.seed))
        build_backend(spec)
        samples.append(time.perf_counter() - t0)
    return samples


def run_solve(workload, seed: int, traced: bool) -> dict:
    from repro.exp import runner
    from repro.exp.spec import RunSpec

    spec = RunSpec.from_dict(workload.spec_fields(seed))
    setup = solve_setup_seconds(spec)
    tracer = LayerTracer()
    if traced:
        install(tracer)
    try:
        t0 = time.perf_counter()
        out = runner.execute_run(spec)     # looked up after install
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    # execute_run repeats the (now warm) set-up before its first sweep
    solve_s = wall - median(setup)
    rep = {"setup_samples": setup, "solve_s": solve_s,
           "bond_s": [r.seconds for r in out.result.site_records],
           "energies": [[workload.reference_key, out.energies[0]]],
           "statuses": ["completed"],
           "modelled_s": out.report.get("modelled_seconds"),
           "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
           "leftover_wrappers": installed_wrappers()}
    if traced:
        rep["layers"] = layer_metrics(
            tracer.snapshot(), sum_report_counters([out.report]), solve_s,
            {})
    return rep


def _ship_worker_timings(tracer: LayerTracer, outdir: Path) -> None:
    """Make forked campaign workers write their measurements to ``outdir``.

    Workers inherit the wrappers through ``fork`` but their measurements
    stay in the child; this wraps the per-run worker body so each child
    starts from zero and dumps a snapshot (with its finish time) on exit.
    """
    from repro.exp import scheduler

    parent = os.getpid()
    original = scheduler.execute_and_record

    def execute_and_ship(spec, registry, **kwargs):
        if os.getpid() == parent:          # inline mode: nothing to ship
            return original(spec, registry, **kwargs)
        tracer.reset()
        try:
            return original(spec, registry, **kwargs)
        finally:
            snap = tracer.snapshot()
            snap["run_id"] = spec.run_id
            snap["end_unix"] = time.time()
            (outdir / f"{spec.run_id}.json").write_text(
                json.dumps(snap), encoding="utf-8")

    tracer.patch(scheduler, "execute_and_record", execute_and_ship)


def campaign_setup_seconds(workload, seed: int, tmp: Path) -> list:
    """Time grid expansion plus opening a fresh registry."""
    from repro.exp.registry import RunRegistry
    from repro.exp.spec import load_specs

    samples = []
    for k in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        for i in range(CAMPAIGN_SETUP_BATCH):
            for grid in workload.passes(seed):
                load_specs(grid)
            registry = RunRegistry(tmp / f"setup-{k}-{i}")
            registry.root.mkdir(parents=True)
            registry.run_ids()
        samples.append((time.perf_counter() - t0) / CAMPAIGN_SETUP_BATCH)
    return samples


def run_campaign_rep(workload, seed: int, traced: bool, tmp: Path) -> dict:
    from repro.exp.registry import RunRegistry
    from repro.exp.scheduler import run_campaign
    from repro.exp.spec import load_specs

    setup = campaign_setup_seconds(workload, seed, tmp)
    (name1, specs1), (name2, specs2) = (load_specs(g)
                                        for g in workload.passes(seed))
    registry = RunRegistry(tmp / "registry")
    shipped = tmp / "worker-timings"
    shipped.mkdir()
    decided_at = {}

    def progress(outcome) -> None:
        # first decision only: pass 2 re-decides pass 1's runs as skipped
        decided_at.setdefault(outcome.run_id, time.time())

    workers = thread_budget()["campaign_workers"]
    tracer = LayerTracer()
    if traced:
        install(tracer)
        _ship_worker_timings(tracer, shipped)
    try:
        t0 = time.perf_counter()
        first = run_campaign(specs1, registry=registry, name=name1,
                             workers=workers, progress=progress)
        second = run_campaign(specs2, registry=registry, name=name2,
                              workers=workers, progress=progress)
        solve_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    outcomes = first.outcomes + second.outcomes
    records = [registry.latest(spec.run_id) for spec in specs2]
    rep = {"setup_samples": setup, "solve_s": solve_s,
           "energies": [[model_key(r.spec["model"], r.spec["params"]),
                         r.energy] for r in records if r is not None],
           "statuses": [o.status for o in outcomes],
           "modelled_s": None,
           "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
           "leftover_wrappers": installed_wrappers()}
    if traced:
        wait = 0.0
        for path in sorted(shipped.glob("*.json")):
            snap = json.loads(path.read_text(encoding="utf-8"))
            tracer.merge(snap)
            wait += max(0.0, decided_at[snap["run_id"]] - snap["end_unix"])
        skipped = sum(1 for o in outcomes if o.status == "skipped")
        rep["layers"] = layer_metrics(
            tracer.snapshot(),
            sum_report_counters(r.report for r in records
                                if r is not None and r.report),
            solve_s,
            {"exp.scheduler.dispatch_wait_s": wait,
             "exp.campaign.hit_ratio": skipped / len(outcomes),
             "exp.campaign.runs_per_s": len(outcomes) / solve_s})
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark repetition")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True,
                        help="fresh scratch directory for this repetition")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    args.tmp.mkdir(parents=True, exist_ok=False)
    if workload.kind == "campaign":
        rep = run_campaign_rep(workload, args.seed, bool(args.trace),
                               args.tmp)
    else:
        rep = run_solve(workload, args.seed, bool(args.trace))
    print(json.dumps(rep), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
