"""Which ``repro`` entry points the traced run wraps; per-layer metrics.

:func:`install` puts :class:`~tracer.LayerTracer` wrappers on the public
functions of every layer; :func:`layer_metrics` turns the measurements plus
the counters the program reports itself (``report["metrics"]``) into the
benchmark's per-layer metrics.  ``PER_LAYER`` is the single list of those
metrics, with units; ``BENCHMARK.json`` mirrors it.
"""

from __future__ import annotations

import importlib
import pkgutil
import statistics
from typing import Dict, Iterable, Mapping, Tuple

from tracer import LayerTracer

#: (name, unit) of every per-layer metric, in output order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("dmrg.davidson.self_s", "s"),
    ("dmrg.davidson.matvecs", "count"),
    ("dmrg.environments.busy_s", "s"),
    ("dmrg.bond_ms.p50", "ms"),
    ("dmrg.bond_ms.p99", "ms"),
    ("dmrg.bond_ms.samples", "count"),
    ("dmrg.checkpoint.save_s", "s"),
    ("symmetry.matvec.compile_s", "s"),
    ("symmetry.matvec.execute_s", "s"),
    ("symmetry.matvec.refresh_s", "s"),
    ("program.compiles", "count"),
    ("program.refreshes", "count"),
    ("program.retraces", "count"),
    ("program.refresh_rate", "ratio"),
    ("symmetry.planner.busy_s", "s"),
    ("plan_cache.hits", "count"),
    ("plan_cache.misses", "count"),
    ("plan_cache.hit_rate", "ratio"),
    ("symmetry.engine.self_s", "s"),
    ("symmetry.blockops.matmul.calls", "count"),
    ("symmetry.blockops.matmul.busy_s", "s"),
    ("symmetry.blockops.matmul.busy_share", "ratio"),
    ("symmetry.blockops.matmul.gflop", "Gflop"),
    ("symmetry.blockops.matmul.gflops_per_s", "Gflop/s"),
    ("symmetry.blockops.matmul.bytes_computed", "B"),
    ("symmetry.blockops.matmul.flops_per_byte", "flop/B"),
    ("symmetry.blockops.svd.busy_s", "s"),
    ("symmetry.blockops.concat_stack.busy_s", "s"),
    ("backends.contract.calls", "count"),
    ("backends.contract.busy_s", "s"),
    ("ctf.self_s", "s"),
    ("ctf.self_share", "ratio"),
    ("ctf.charges", "count"),
    ("ctf.mapping.evaluations", "count"),
    ("ctf.mapping.distinct_shapes", "count"),
    ("ctf.mapping.distinct_ratio", "ratio"),
    ("ctf.modelled_s", "s_modelled"),
    ("layout.moves", "count"),
    ("layout.reuses", "count"),
    ("layout.reuse_rate", "ratio"),
    ("exp.scheduler.dispatch_wait_s", "s"),
    ("exp.registry.write_s", "s"),
    ("exp.registry.lookup_s", "s"),
    ("exp.campaign.hit_ratio", "ratio"),
    ("exp.campaign.runs_per_s", "1/s"),
    ("models.build_s", "s"),
    ("mps.build_mpo_s", "s"),
    ("mps.initial_state_s", "s"),
    ("trace.solve_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

#: counters read from ``report["metrics"]`` and summed over runs
REPORT_COUNTERS = ("program.compiles", "program.refreshes",
                   "program.retraces", "plan_cache.hits", "plan_cache.misses",
                   "layout.moves", "layout.reuses")


def _count_matvecs(tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.counters["dmrg.davidson.matvecs"] += result.matvecs


def _count_gemm(tracer, args, kwargs, result) -> None:
    # BlockOps.matmul(self, a, b, out=None): C[m, n] = A[m, k] B[k, n],
    # with any leading dimensions as a batch
    a, b = args[1], args[2]
    m, k = a.shape[-2:]
    n = b.shape[-1]
    batch = 1
    for d in a.shape[:-2]:
        batch *= d
    tracer.counters["matmul.flop"] += 2.0 * m * n * k * batch
    tracer.counters["matmul.bytes"] += float(
        (m * k + k * n + m * n) * batch * a.itemsize)


def _count_mapping(tracer, args, kwargs, result) -> None:
    # one GEMM shape scored; summa_2d calls made by candidate_mappings
    # itself belong to that scoring and are not counted again
    if tracer.parent_name() == "ctf.candidate_mappings":
        return
    shape, nprocs = args[0], args[1]
    tracer.counters["ctf.mapping.evaluations"] += 1
    tracer.keys["ctf.mapping.shapes"].add((shape.m, shape.n, shape.k, nprocs))


def _record_bonds(tracer, args, kwargs, out) -> None:
    result = getattr(out, "result", None)
    if result is not None:
        tracer.samples["dmrg.bond_s"].extend(
            r.seconds for r in result.site_records)


def import_package(package: str = "repro") -> None:
    """Import every submodule, so no module binds a wrapper after install.

    A module imported while wrappers are installed would copy a wrapper
    into its namespace by ``from x import f`` and keep it after
    :meth:`~tracer.LayerTracer.restore`.
    """
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if not info.name.endswith("__main__"):
            try:
                importlib.import_module(info.name)
            except ImportError:  # optional accelerator/transport modules
                pass


def install(tracer: LayerTracer) -> None:
    """Wrap the public entry points of every layer of ``repro``."""
    import_package()       # also registers every backend class
    from repro.backends.base import ContractionBackend
    from repro.ctf.world import SimWorld
    from repro.exp.registry import RunRegistry
    from repro.models import build_model
    from repro.mps import build_mpo
    from repro.symmetry.blockops import BlockOps
    from repro.symmetry.matvec import MatvecCompiler, MatvecProgram

    # by module path: packages re-export functions under their modules' names
    def module(name):
        return importlib.import_module(f"repro.{name}")

    checkpoint, davidson, environments = (
        module("dmrg.checkpoint"), module("dmrg.davidson"),
        module("dmrg.environments"))
    engine, planner = module("symmetry.engine"), module("symmetry.planner")
    mapping, runner = module("ctf.mapping"), module("exp.runner")

    fn = tracer.wrap_function
    fn(davidson.davidson, "dmrg.davidson", "dmrg.davidson",
       observe=_count_matvecs)
    for name in ("left_edge_environment", "right_edge_environment",
                 "extend_left", "extend_right"):
        fn(getattr(environments, name), f"dmrg.{name}", "dmrg.environments")
    fn(checkpoint.save_checkpoint, "dmrg.checkpoint.save", "dmrg.checkpoint")

    tracer.wrap_method(MatvecCompiler, "apply", "symmetry.matvec.apply",
                       "symmetry.matvec")
    tracer.wrap_method(MatvecProgram, "execute", "symmetry.matvec.execute",
                       "symmetry.matvec")
    tracer.wrap_method(MatvecProgram, "refresh", "symmetry.matvec.refresh",
                       "symmetry.matvec")

    fn(planner.build_plan, "symmetry.planner.build_plan", "symmetry.planner")
    for attr in ("lookup", "peek"):
        tracer.wrap_method(planner.PlanCache, attr,
                           f"symmetry.planner.{attr}", "symmetry.planner")
    for name in ("execute_plan", "execute_cached", "plan_for",
                 "contract_planned"):
        fn(getattr(engine, name), f"symmetry.engine.{name}",
           "symmetry.engine")

    sub = tracer.wrap_subclass_methods
    sub(BlockOps, "matmul", "blockops.matmul", "symmetry.blockops",
        observe=_count_gemm)
    sub(BlockOps, "svd", "blockops.svd", "symmetry.blockops")
    for attr in ("concat", "stack"):
        sub(BlockOps, attr, "blockops.concat_stack", "symmetry.blockops")
    sub(ContractionBackend, "contract", "backends.contract", "backends")

    for attr in sorted(vars(SimWorld)):
        if attr.startswith("charge_"):
            tracer.wrap_method(SimWorld, attr, f"ctf.{attr}", "ctf")
    for attr in ("preferred_mapping", "pair_decisions"):
        tracer.wrap_method(SimWorld, attr, f"ctf.{attr}", "ctf")
    fn(mapping.candidate_mappings, "ctf.candidate_mappings", "ctf",
       observe=_count_mapping)
    fn(mapping.summa_2d, "ctf.summa_2d", "ctf", observe=_count_mapping)

    fn(runner.execute_run, "exp.execute_run", "exp.runner",
       observe=_record_bonds)
    tracer.wrap_method(RunRegistry, "write", "exp.registry.write",
                       "exp.registry")
    for attr in ("has_completed", "latest", "load"):
        tracer.wrap_method(RunRegistry, attr, "exp.registry.lookup",
                           "exp.registry")

    fn(build_model, "models.build", "models")
    fn(build_mpo, "mps.build_mpo", "mps")
    fn(runner.build_initial_state, "mps.initial_state", "mps")


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def sum_report_counters(reports: Iterable[Mapping[str, float]]
                        ) -> Dict[str, float]:
    """Sum :data:`REPORT_COUNTERS` (and modelled seconds) over run reports."""
    totals = {name: 0.0 for name in REPORT_COUNTERS}
    totals["modelled_seconds"] = 0.0
    for report in reports:
        flat = report.get("metrics", {})
        for name in REPORT_COUNTERS:
            totals[name] += float(flat.get(name, 0.0))
        totals["modelled_seconds"] += float(
            report.get("modelled_seconds", 0.0))
    return totals


def layer_metrics(snap: Mapping[str, object], counters: Mapping[str, float],
                  solve_s: float, extra: Mapping[str, float]
                  ) -> Dict[str, float]:
    """Per-layer metric values from a tracer snapshot and report counters.

    ``solve_s`` is the traced solve's wall time (the base of the shares);
    ``extra`` supplies values only the caller knows (``exp.*`` campaign
    figures, ``trace.overhead_frac``).
    """
    calls, busy, self_t = snap["calls"], snap["busy"], snap["self"]
    lbusy, lself = snap["layer_busy"], snap["layer_self"]
    cnt = snap["counters"]
    bonds_ms = [1e3 * s for s in snap["samples"].get("dmrg.bond_s", [])]
    gflop = cnt.get("matmul.flop", 0.0) / 1e9
    mm_busy = busy.get("blockops.matmul", 0.0)
    evaluations = cnt.get("ctf.mapping.evaluations", 0.0)
    shapes = len(snap["keys"].get("ctf.mapping.shapes", []))
    c = counters
    values = {
        "dmrg.davidson.self_s": self_t.get("dmrg.davidson", 0.0),
        "dmrg.davidson.matvecs": cnt.get("dmrg.davidson.matvecs", 0.0),
        "dmrg.environments.busy_s": lbusy.get("dmrg.environments", 0.0),
        "dmrg.bond_ms.p50": _percentile(bonds_ms, 50),
        "dmrg.bond_ms.p99": _percentile(bonds_ms, 99),
        "dmrg.bond_ms.samples": len(bonds_ms),
        "dmrg.checkpoint.save_s": busy.get("dmrg.checkpoint.save", 0.0),
        "symmetry.matvec.compile_s": self_t.get("symmetry.matvec.apply", 0.0),
        "symmetry.matvec.execute_s": busy.get("symmetry.matvec.execute", 0.0),
        "symmetry.matvec.refresh_s": busy.get("symmetry.matvec.refresh", 0.0),
        "program.compiles": c["program.compiles"],
        "program.refreshes": c["program.refreshes"],
        "program.retraces": c["program.retraces"],
        "program.refresh_rate": _rate(
            c["program.refreshes"],
            c["program.refreshes"] + c["program.retraces"]),
        "symmetry.planner.busy_s": lbusy.get("symmetry.planner", 0.0),
        "plan_cache.hits": c["plan_cache.hits"],
        "plan_cache.misses": c["plan_cache.misses"],
        "plan_cache.hit_rate": _rate(
            c["plan_cache.hits"], c["plan_cache.hits"]
            + c["plan_cache.misses"]),
        "symmetry.engine.self_s": lself.get("symmetry.engine", 0.0),
        "symmetry.blockops.matmul.calls": calls.get("blockops.matmul", 0),
        "symmetry.blockops.matmul.busy_s": mm_busy,
        "symmetry.blockops.matmul.busy_share": _rate(mm_busy, solve_s),
        "symmetry.blockops.matmul.gflop": gflop,
        "symmetry.blockops.matmul.gflops_per_s": _rate(gflop, mm_busy),
        "symmetry.blockops.matmul.bytes_computed": cnt.get("matmul.bytes",
                                                           0.0),
        "symmetry.blockops.matmul.flops_per_byte": _rate(
            cnt.get("matmul.flop", 0.0), cnt.get("matmul.bytes", 0.0)),
        "symmetry.blockops.svd.busy_s": busy.get("blockops.svd", 0.0),
        "symmetry.blockops.concat_stack.busy_s": busy.get(
            "blockops.concat_stack", 0.0),
        "backends.contract.calls": calls.get("backends.contract", 0),
        "backends.contract.busy_s": busy.get("backends.contract", 0.0),
        "ctf.self_s": lself.get("ctf", 0.0),
        "ctf.self_share": _rate(lself.get("ctf", 0.0), solve_s),
        "ctf.charges": sum(v for k, v in calls.items()
                           if k.startswith("ctf.charge_")),
        "ctf.mapping.evaluations": evaluations,
        "ctf.mapping.distinct_shapes": shapes,
        "ctf.mapping.distinct_ratio": _rate(shapes, evaluations),
        "ctf.modelled_s": c["modelled_seconds"],
        "layout.moves": c["layout.moves"],
        "layout.reuses": c["layout.reuses"],
        "layout.reuse_rate": _rate(c["layout.reuses"],
                                   c["layout.moves"] + c["layout.reuses"]),
        "exp.registry.write_s": busy.get("exp.registry.write", 0.0),
        "exp.registry.lookup_s": busy.get("exp.registry.lookup", 0.0),
        "models.build_s": busy.get("models.build", 0.0),
        "mps.build_mpo_s": busy.get("mps.build_mpo", 0.0),
        "mps.initial_state_s": busy.get("mps.initial_state", 0.0),
        "trace.solve_s": solve_s,
        "exp.scheduler.dispatch_wait_s": 0.0,
        "exp.campaign.hit_ratio": 0.0,
        "exp.campaign.runs_per_s": 0.0,
        "trace.overhead_frac": 0.0,
    }
    values.update(extra)
    return {name: float(values[name]) for name, _ in PER_LAYER}


def median(values) -> float:
    return float(statistics.median(values))
