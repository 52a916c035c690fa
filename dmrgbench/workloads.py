"""The benchmark's workloads: seeded run specs and campaign grids.

Every workload turns the benchmark seed into the inputs the program
receives (``RunSpec.seed`` and the campaign grid's seeds); nothing else
about a workload depends on the seed.  ``README.md`` beside this file says
why each workload was chosen and which layers it stresses.

The ``tiny-*`` workloads exist for ``selftest.py``: the same code paths at
sizes that finish in seconds.  They are not part of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Dict, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"


@dataclass(frozen=True)
class SolveWorkload:
    """One DMRG ground-state solve through ``execute_run``."""

    name: str
    model: str
    params: Tuple[Tuple[str, object], ...]
    backend: str
    maxdim: int
    nsweeps: int
    nodes: int = 4
    procs_per_node: int = 16
    kind: ClassVar[str] = "solve"

    def spec_fields(self, seed: int) -> Dict[str, object]:
        """``RunSpec.from_dict`` fields for this workload and seed."""
        return {"model": self.model, "params": dict(self.params),
                "backend": self.backend, "nodes": self.nodes,
                "procs_per_node": self.procs_per_node,
                "maxdim": self.maxdim, "nsweeps": self.nsweeps,
                "seed": int(seed), "label": self.name}

    @property
    def reference_key(self) -> str:
        return model_key(self.model, self.params)


@dataclass(frozen=True)
class CampaignWorkload:
    """Two ``run_campaign`` passes over one fresh registry.

    Pass 1 submits ``len(models) * pass1_seeds`` distinct specs (all
    misses); pass 2 resubmits them plus ``len(models) * pass2_new_seeds``
    new ones (hits on the old, misses on the new).
    """

    name: str
    models: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...]
    maxdim: int
    nsweeps: int
    pass1_seeds: int
    pass2_new_seeds: int
    kind: ClassVar[str] = "campaign"

    def grid(self, seed: int, nseeds: int) -> Dict[str, object]:
        """Grid-file dict over ``models x nseeds`` seeded runs."""
        base = {"backend": "direct", "initial_state": "random",
                "initial_bond_dim": 8, "maxdim": self.maxdim,
                "nsweeps": self.nsweeps, "label": self.name}
        runs = [{"model": model, "params": dict(params),
                 "seed": 1000 * int(seed) + i}
                for model, params in self.models for i in range(nseeds)]
        return {"name": f"{self.name}-{seed}", "base": base, "runs": runs}

    def passes(self, seed: int) -> Tuple[Dict[str, object],
                                         Dict[str, object]]:
        return (self.grid(seed, self.pass1_seeds),
                self.grid(seed, self.pass1_seeds + self.pass2_new_seeds))


def model_key(model: str, params) -> str:
    """Reference-table key, e.g. ``j1j2-cylinder:j2=0.5,lx=6,ly=4``."""
    return model + ":" + ",".join(f"{k}={v}" for k, v in sorted(
        dict(params).items()))


SPINS = (("lx", 6), ("ly", 4), ("j2", 0.5))
ELECTRONS = (("lx", 4), ("ly", 3), ("u", 8.5))

WORKLOADS = {w.name: w for w in (
    # the paper's headline configuration: kernel- and compile-heavy
    SolveWorkload("spins-list", "j1j2-cylinder", SPINS, "list",
                  maxdim=128, nsweeps=6),
    # U(1)xU(1) symmetry, many small blocks: cost-model and planner bound
    SolveWorkload("electrons-sparse", "triangular-hubbard", ELECTRONS,
                  "sparse-sparse", maxdim=16, nsweeps=1),
    # the only workload that loads exp (fork dispatch, registry, checkpoints)
    CampaignWorkload("campaign-mixed",
                     (("heisenberg-chain", (("n", 12),)),
                      ("tfim", (("n", 12),))),
                     maxdim=8, nsweeps=3, pass1_seeds=4, pass2_new_seeds=2),
    # self-test sizes (selftest.py only)
    SolveWorkload("tiny-direct", "heisenberg-chain", (("n", 8),), "direct",
                  maxdim=16, nsweeps=3),
    SolveWorkload("tiny-list", "heisenberg-chain", (("n", 8),), "list",
                  maxdim=16, nsweeps=3, nodes=1, procs_per_node=4),
    CampaignWorkload("tiny-campaign",
                     (("heisenberg-chain", (("n", 8),)),
                      ("tfim", (("n", 8),))),
                     maxdim=16, nsweeps=3, pass1_seeds=1, pass2_new_seeds=1),
)}

#: the workloads ``BENCHMARK.json`` lists
BENCHMARK_WORKLOADS = ("spins-list", "electrons-sparse", "campaign-mixed")


def thread_budget() -> Dict[str, int]:
    """Worker processes and BLAS threads, capped at ``nproc`` (and 2).

    One BLAS thread everywhere: on the spin workload two threads were
    slower (10.5-12.2 s against 9.9-11.2 s per solve on a 2-vCPU VM), the
    GEMMs being too small to split.
    """
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "blas_threads": 1,
            "campaign_workers": min(nproc, 2)}


def load_reference(path: Path = REFERENCE_FILE) -> Dict[str, object]:
    """The pinned reference table (``make_reference.py`` writes it)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
