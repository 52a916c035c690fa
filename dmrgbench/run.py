"""DMRG time-to-solution benchmark: one command, every metric, checked.

Run from the repository root::

    python3 dmrgbench/run.py --workload spins-list --seed 1 --seconds 30 \\
        --trace 0

Each repetition runs in a fresh ``worker.py`` process (so every solve pays
plan and program compilation, as a ``repro run`` does).  With ``--trace 0``
the benchmark repeats untraced solves until ``--seconds`` is used up and
prints the end-to-end metrics: set-up time as the fastest sample, solve
time as in :func:`fastest_solve`, energy excess and memory as medians.
With ``--trace 1`` it runs untraced/traced pairs of repetitions and prints
the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; earlier lines record the environment and every
repetition.

Energies are checked against the pinned references in ``reference.json``:
a run below its reference by more than round-off, above the workload's
pinned energy-excess bound, with modelled seconds other than the pinned
ones, or a campaign run that ends neither ``completed`` nor ``skipped``
counts as a failed operation.  When no repetition completes, the result
line has no metrics and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from instrument import PER_LAYER, median  # noqa: E402
from workloads import (WORKLOADS, load_reference,  # noqa: E402
                       thread_budget)

#: (name, unit) of every end-to-end metric, in output order
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("energy_excess", "energy"),
    ("peak_rss_mb", "MiB"),
)

#: a run this far below its reference (relative) is round-off, not a failure
ROUNDOFF_REL = 1e-9
#: modelled seconds are deterministic: any larger relative change fails
MODELLED_REL = 1e-12
#: no repetition may outlive this; the whole run ends well inside 180 s
HARD_LIMIT_S = 170.0
MAX_REPETITIONS = 20
SCRATCH_DIR = ".dmrgbench_tmp"


def child_env(root: Path, budget: Mapping[str, int]) -> dict:
    threads = budget["blas_threads"]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"       # same set/dict order in every process
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    # the registry records git metadata: keep git inside the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    env["GIT_CONFIG_NOSYSTEM"] = "1"
    return env


def environment_record(budget: Mapping[str, int], env: Mapping[str, str]
                       ) -> Dict[str, object]:
    """nproc, BLAS library, thread settings and numpy version."""
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts'); "
             "b = c['Build Dependencies']['blas']; print(json.dumps("
             "{'numpy': numpy.__version__, 'blas': b.get('name'), "
             "'blas_version': b.get('version')}))")
    info = json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=dict(env), capture_output=True,
        text=True, check=True, timeout=60).stdout.strip().splitlines()[-1])
    info.update(budget)
    info["python"] = sys.version.split()[0]
    info["threads_env"] = {k: env[k] for k in ("OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS",
                                               "PYTHONHASHSEED")}
    return info


def run_repetition(workload, seed: int, traced: bool, root: Path,
                   env: Mapping[str, str], deadline: float) -> dict:
    """One fresh-process repetition; raises ``RuntimeError`` on failure."""
    scratch = Path(tempfile.mkdtemp(prefix="rep-", dir=root / SCRATCH_DIR))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload.name, "--seed", str(seed),
           "--trace", str(int(traced)), "--tmp", str(scratch / "w")]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=dict(env),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"repetition timed out after {exc.timeout:.0f} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["wall_s"] = time.perf_counter() - t0
    return rep


def check_repetition(workload, rep: dict, reference: Mapping[str, object]
                     ) -> Tuple[int, int, Optional[float], List[str]]:
    """``(attempted, failed, energy excess, problems)`` of one repetition.

    The excess reported is the largest over the repetition's runs.
    """
    energies = reference["energies"]
    pins = reference["workloads"][workload.name]
    bounds = pins["max_energy_excess"]
    problems = [f"run ended {s}" for s in rep["statuses"]
                if s not in ("completed", "skipped")]
    excess = None
    for key, energy in rep["energies"]:
        e_ref = energies[key]["energy"]
        delta = energy - e_ref
        excess = delta if excess is None else max(excess, delta)
        if delta < -ROUNDOFF_REL * max(1.0, abs(e_ref)):
            problems.append(f"{key}: E={energy!r} is below the reference "
                            f"{e_ref!r} (unphysical)")
        elif delta > bounds[key]:
            problems.append(f"{key}: energy excess {delta:.3e} above the "
                            f"pinned bound {bounds[key]:.3e}")
    pinned, modelled = pins.get("modelled_s"), rep.get("modelled_s")
    if pinned is not None and (modelled is None or abs(modelled - pinned)
                               > MODELLED_REL * abs(pinned)):
        problems.append(f"modelled_s {modelled!r} differs from the pinned "
                        f"{pinned!r}")
    if rep.get("leftover_wrappers"):
        problems.append(f"tracing wrappers left installed: "
                        f"{rep['leftover_wrappers']}")
    attempted = len(rep["statuses"])
    # one run may fail several checks; it is still one failed operation
    return attempted, min(attempted, len(problems)), excess, problems


def fastest_solve(reps: List[dict]) -> float:
    """Solve time with a shared host's slow stretches taken out.

    Repetitions of one workload and seed do the same work bond by bond, but
    a shared VM runs any stretch of it up to 1.5-1.8x slower for seconds at
    a time.  So every bond counts with its fastest repetition, and the time
    outside the bonds (environments before the first sweep, sweep
    bookkeeping) with its fastest repetition too.  A campaign repetition
    runs its solves in parallel and has no bond timings the benchmark can
    see: it counts whole, as the median over repetitions (its fastest
    repetition is one extreme draw, and spread twice as far over runs).
    """
    if "bond_s" not in reps[0]:
        return median([r["solve_s"] for r in reps])
    nbonds = {len(r["bond_s"]) for r in reps}
    if len(nbonds) != 1:     # the sweep schedule fixes it: a program defect
        raise RuntimeError(f"repetitions optimised {sorted(nbonds)} bonds")
    bonds = sum(min(times) for times in zip(*(r["bond_s"] for r in reps)))
    outside = min(r["solve_s"] - sum(r["bond_s"]) for r in reps)
    return bonds + outside


def end_to_end(reps: List[dict], excesses: List[float]) -> Dict[str, float]:
    """Fastest set-up sample; solve as above; medians of the rest."""
    return {
        "setup_s": min(s for r in reps for s in r["setup_samples"]),
        "solve_s": fastest_solve(reps),
        "energy_excess": median(excesses),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def benchmark(workload, seed: int, seconds: float, traced: bool,
              root: Path, reference: Mapping[str, object],
              log=print) -> dict:
    """Run the repetitions and return the result object (not printed).

    Untraced, repetitions follow each other until ``seconds`` are used up
    (the last one may end up to half a repetition later).
    Traced, they come in untraced/traced pairs, alternating which of the
    two runs first.  When no repetition (traced: no pair) completes, the
    result has no metrics.
    """
    budget = thread_budget()
    env = child_env(root, budget)
    log("env " + json.dumps(environment_record(budget, env), sort_keys=True))
    (root / SCRATCH_DIR).mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    reps: List[dict] = []
    excesses: List[float] = []
    attempted = failed = 0
    while len(reps) < MAX_REPETITIONS:
        rep_traced = traced and len(reps) % 4 in (1, 2)
        try:
            rep = run_repetition(workload, seed, rep_traced, root, env,
                                 deadline)
        except RuntimeError as exc:
            attempted, failed = attempted + 1, failed + 1
            log(f"rep failed: {exc}")
            break
        n, bad, excess, problems = check_repetition(workload, rep, reference)
        attempted, failed = attempted + n, failed + bad
        for problem in problems:
            log(f"FAILED: {problem}")
        rep_summary = {k: rep[k] for k in ("solve_s", "peak_rss_mb",
                                           "modelled_s", "wall_s")}
        rep_summary.update(traced=rep_traced, energy_excess=excess)
        log("rep " + json.dumps(rep_summary, sort_keys=True))
        rep["traced"] = rep_traced
        reps.append(rep)
        if excess is not None:
            excesses.append(excess)
        if traced and len(reps) % 2:
            continue                       # finish the pair first
        # start another repetition (pair) if at least half of it fits, so a
        # run lasts ``seconds`` on average and slow repetitions still leave
        # the fastest-bond estimate three samples of the longest workload
        last = reps[-2:] if traced else reps[-1:]
        if (time.monotonic() - start + 0.5 * sum(r["wall_s"] for r in last)
                > seconds):
            break
    try:
        (root / SCRATCH_DIR).rmdir()     # only if every repetition cleaned up
    except OSError:
        pass
    result = {"correct": failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {}}
    if traced:
        pairs = [sorted(pair, key=lambda r: r["traced"])
                 for pair in zip(reps[0::2], reps[1::2])]
        if not pairs:
            return result
        layers = [tr["layers"] for _, tr in pairs]
        values = {name: median([layer[name] for layer in layers])
                  for name, _ in PER_LAYER}
        values["trace.overhead_frac"] = median(
            [tr["solve_s"] / base["solve_s"] for base, tr in pairs]) - 1.0
        units = PER_LAYER
    else:
        if not excesses:
            return result
        values = end_to_end(reps, excesses)
        units = END_TO_END
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro package; run from the "
              f"repository root", file=sys.stderr)
        return 2
    reference = load_reference()
    result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), root, reference)
    print(json.dumps(result), flush=True)
    if not result["metrics"]:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
