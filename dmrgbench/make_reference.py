"""Compute the pinned reference energies in ``reference.json``.

Each reference is a two-site DMRG ground state of one workload model with
the ``direct`` backend (uncompiled matvecs) at a bond dimension well above
the workload's, run for more sweeps; the benchmark's ``energy_excess`` is
measured against it.  The triangular Hubbard reference still moved by
8e-3 between 20 and 40 sweeps at maxdim 512: it is an upper bound on the
ground-state energy, far below the workload's (excess ~1.2).

Run from the repository root::

    PYTHONPATH=src python3 dmrgbench/make_reference.py
    PYTHONPATH=src python3 dmrgbench/make_reference.py --pin-modelled

The first rewrites the ``energies`` section only; the ``workloads`` pins
(modelled seconds and energy-excess bounds) are kept as they are.  The
second instead re-pins the modelled seconds of every simulated workload
from one solve each: the benchmark fails any run whose modelled seconds
differ from the pin, so a change that alters the cost model on purpose
re-pins them with this command.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from workloads import REFERENCE_FILE, WORKLOADS, model_key

#: (model, params, maxdim, nsweeps) of the reference solve for each model
REFERENCE_SOLVES = (
    ("heisenberg-chain", {"n": 8}, 64, 8),
    ("tfim", {"n": 8}, 64, 8),
    ("heisenberg-chain", {"n": 12}, 64, 8),
    ("tfim", {"n": 12}, 64, 8),
    ("triangular-hubbard", dict(WORKLOADS["electrons-sparse"].params),
     512, 40),
    ("j1j2-cylinder", dict(WORKLOADS["spins-list"].params), 512, 10),
)

COMMAND = "PYTHONPATH=src python3 dmrgbench/make_reference.py"


def reference_energy(model: str, params: dict, maxdim: int,
                     nsweeps: int) -> float:
    from repro.exp.runner import execute_run
    from repro.exp.spec import RunSpec
    # uncompiled matvecs: the reference needs no speed, and compiled
    # programs at these bond dimensions would hold several GB of buffers
    spec = RunSpec(model=model, params=tuple(params.items()),
                   backend="direct", maxdim=maxdim, nsweeps=nsweeps,
                   compile_matvec=False)
    return float(execute_run(spec).energies[0])


def pin_modelled(table: dict) -> None:
    """Re-pin ``modelled_s`` of every workload on a simulated machine."""
    from repro.exp.runner import execute_run
    from repro.exp.spec import RunSpec
    for name, workload in WORKLOADS.items():
        if workload.kind != "solve" or workload.backend == "direct":
            continue
        spec = RunSpec.from_dict(workload.spec_fields(seed=0))
        modelled = float(execute_run(spec).report["modelled_seconds"])
        pins = table.setdefault("workloads", {}).setdefault(name, {})
        pins["modelled_s"] = modelled
        print(f"{name}: modelled_s = {modelled!r}", flush=True)
    REFERENCE_FILE.write_text(json.dumps(table, indent=2, sort_keys=True)
                              + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin-modelled", action="store_true",
                        help="re-pin the simulated workloads' modelled "
                             "seconds instead of the reference energies")
    args = parser.parse_args(argv)
    try:
        table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        table = {}
    if args.pin_modelled:
        pin_modelled(table)
        return 0
    table["command"] = COMMAND
    energies = table.setdefault("energies", {})
    for model, params, maxdim, nsweeps in REFERENCE_SOLVES:
        key = model_key(model, params)
        t0 = time.perf_counter()
        energy = reference_energy(model, params, maxdim, nsweeps)
        energies[key] = {"energy": energy, "backend": "direct",
                         "maxdim": maxdim, "nsweeps": nsweeps}
        print(f"{key}: E = {energy!r} (maxdim {maxdim}, {nsweeps} sweeps, "
              f"{time.perf_counter() - t0:.1f} s)", flush=True)
        REFERENCE_FILE.write_text(json.dumps(table, indent=2, sort_keys=True)
                                  + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
