"""Self-test of the benchmark at tiny sizes (about fifteen seconds).

Run from the repository root::

    python3 dmrgbench/selftest.py

It checks that

* every end-to-end and per-layer metric prints with its unit, on a solve
  workload and on a campaign workload, and ``BENCHMARK.json`` lists exactly
  those metrics;
* the tracing wrappers are all removed after a traced run, so untraced runs
  execute unmodified code;
* a deliberately wrong reference energy, an energy-excess bound that is
  too tight, and a wrong pinned modelled time are each counted as failed
  operations;
* a repetition that crashes is a failed operation, and a run in which none
  completes still reports its counts, with no metrics.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from instrument import PER_LAYER, install  # noqa: E402
from run import END_TO_END, benchmark  # noqa: E402
from tracer import LayerTracer, installed_wrappers  # noqa: E402
from workloads import (BENCHMARK_WORKLOADS, WORKLOADS,  # noqa: E402
                       load_reference)

SOLVE, SIM, CAMPAIGN = "tiny-direct", "tiny-list", "tiny-campaign"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def quiet(_line: str) -> None:
    pass


def run(workload: str, traced: bool, reference, root: Path) -> dict:
    return benchmark(WORKLOADS[workload], seed=3, seconds=1.0,
                     traced=traced, root=root, reference=reference, log=quiet)


def check_metric_names(reference, root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(tuple(w["name"] for w in spec["workloads"]) == BENCHMARK_WORKLOADS,
          "BENCHMARK.json workloads differ from workloads.py")
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        check(listed == list(names),
              f"BENCHMARK.json {key} differs from the benchmark's metrics")
    for workload in (SIM, CAMPAIGN):
        for traced, names in ((False, END_TO_END), (True, PER_LAYER)):
            result = run(workload, traced, reference, root)
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, "result keys")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} (trace {int(traced)}) failed: {result}")
            printed = [(name, m["unit"])
                       for name, m in result["metrics"].items()]
            check(printed == list(names),
                  f"{workload} (trace {int(traced)}) printed {printed}")
            check(all(isinstance(m["value"], float)
                      for m in result["metrics"].values()),
                  "every metric value is a number")
        print(f"ok: {workload} prints every metric with its unit")


def check_wrappers_removed() -> None:
    import repro.exp.runner as runner
    from repro.symmetry.blockops import BlockOps

    before = (runner.execute_run, BlockOps.__dict__["matmul"])
    tracer = LayerTracer()
    install(tracer)
    check(len(installed_wrappers()) > 20, "install() wrapped the layers")
    tracer.restore()
    check(installed_wrappers() == [],
          f"wrappers left after restore: {installed_wrappers()}")
    check((runner.execute_run, BlockOps.__dict__["matmul"]) == before,
          "originals restored")
    print("ok: tracing wrappers are removed after a traced run")


def check_wrong_reference(reference, root: Path) -> None:
    key = WORKLOADS[SOLVE].reference_key
    wrong = copy.deepcopy(reference)
    wrong["energies"][key]["energy"] += 1.0     # now the solve is below it
    result = run(SOLVE, False, wrong, root)
    check(result["failed"] >= 1 and not result["correct"],
          f"a solve below the reference must fail: {result}")

    tight = copy.deepcopy(reference)
    tight["energies"][key]["energy"] -= 1.0     # now the excess is ~1
    result = run(SOLVE, False, tight, root)
    check(result["failed"] >= 1 and not result["correct"],
          f"an excess above the pinned bound must fail: {result}")

    moved = copy.deepcopy(reference)
    moved["workloads"][SIM]["modelled_s"] *= 1.0 + 1e-9
    result = run(SIM, False, moved, root)
    check(result["failed"] == 1 and not result["correct"],
          f"a modelled time off its pin must fail: {result}")
    print("ok: a wrong reference energy or modelled time counts as a failed "
          "operation")


def check_crash(reference, root: Path) -> None:
    # the worker rejects a workload it does not know and exits non-zero
    unknown = dataclasses.replace(WORKLOADS[SOLVE], name="no-such-workload")
    result = benchmark(unknown, seed=3, seconds=1.0, traced=False,
                       root=root, reference=reference, log=quiet)
    check(result == {"correct": False, "attempted": 1, "failed": 1,
                     "metrics": {}},
          f"a crashed repetition must count as failed: {result}")
    print("ok: a crashed repetition counts as a failed operation")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    reference = load_reference()
    check_wrappers_removed()
    check_wrong_reference(reference, root)
    check_crash(reference, root)
    check_metric_names(reference, root)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
