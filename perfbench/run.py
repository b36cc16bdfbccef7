"""Host-time benchmark of the MRTS reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload oupdr_modeled --seed 1 \
        --seconds 35 --trace 0

``--trace 0`` repeats the workload untraced for ``--seconds`` and reports
every end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` spends half
the time untraced and half in traced runs, and reports the per-layer
metrics.  ``--workload all`` runs every workload in turn, each in a
process of its own.  Every run checks the program's outputs and that
counts and virtual-time figures repeat exactly; a failed check exits
non-zero.  The last line of standard output is one JSON object.  See
``perfbench/README.md`` for the metric catalogue.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"
MIN_OPS = 2   # the determinism self-check needs a repeat within the run


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}; run from a full "
                 "checkout of the repository")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ============================================================ end to end
def end_to_end(ops: list, peak_rss_mib: float) -> dict:
    """metric -> list of samples (a single sample for fixed figures)."""
    sig = ops[0].facts
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    return {
        "wall_s": [op.wall_s for op in ops],
        "setup_s": [op.setup_s for op in ops],
        "virtual_makespan_s": [sig["virtual_makespan_s"]],
        "disk_write_bytes": [sig["disk_write_bytes"]],
        "disk_read_bytes": [sig["disk_read_bytes"]],
        "peak_rss_mib": [peak_rss_mib],
        "job_latency_p50_s": [_median(op.latencies) for op in ops],
        "ops_ok_ratio": [(attempted - failed) / attempted],
    }


# ============================================================= per layer
def per_layer(traced: list, untraced: list, defect_failures: int) -> dict:
    """metric -> value, from the traced ops (medians of host times)."""
    rows = [_layer_row(op, rec) for op, rec in traced]
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        out[key] = statistics.median(values)
    out["trace.overhead_s"] = (
        statistics.median(op.wall_s for op, _ in traced)
        - statistics.median(op.wall_s for op in untraced))
    out["serve.known_defect_failures"] = defect_failures
    return out


def _layer_row(op, rec) -> dict:
    names = rec.by_name()
    layer_self = rec.layer_self_s()
    f = op.facts

    def calls(layer, *labels):
        return sum(v["calls"] for (lay, name), v in names.items()
                   if lay == layer and (not labels or name in labels))

    def field_sum(layer, key, pred=lambda name: True):
        return sum(v[key] for (lay, name), v in names.items()
                   if lay == layer and pred(name))

    events = f["engine_events"]
    runtime_self = layer_self.get("core.runtime", 0.0)
    inserts = calls("mesh", "Triangulation.insert_point")
    exact = sum(v["calls"] for (lay, name), v in names.items()
                if lay == "geometry" and name.startswith("exact."))
    predicates = calls("geometry") - exact
    overlap = max(100.0 * _ratio(
        f["comp_s"] + f["comm_span_s"] + f["disk_span_s"],
        f["capacity_s"]) - 100.0, 0.0) if f["capacity_s"] else 0.0
    serve = op.serve
    return {
        "sim.events": events,
        "core.runtime.self_s": runtime_self,
        "core.runtime.us_per_event": 1e6 * _ratio(runtime_self, events),
        "core.runtime.handler_calls": f["handler_calls"],
        "core.runtime.steals": f["steals"],
        "core.runtime.barrier_idle_s": f["barrier_idle_s"],
        "core.runtime.overlap_pct": overlap,
        "core.spec.self_s": layer_self.get("core.spec", 0.0),
        "core.spec.issued": f["spec_issued"],
        "core.spec.commit_ratio": _ratio(f["spec_committed"],
                                         f["spec_issued"]),
        "core.ooc.calls": calls("core.ooc"),
        "core.ooc.self_s": layer_self.get("core.ooc", 0.0),
        "core.ooc.evictions": f["evictions"],
        "core.ooc.clean_eviction_ratio": _ratio(f["clean_evictions"],
                                                f["evictions"]),
        "core.ooc.prefetch_hit_ratio": _ratio(f["prefetch_hits"],
                                              f["prefetch_issued"]),
        "core.ooc.prefetch_wasted": f["prefetch_wasted"],
        "core.storage.ops": calls("core.storage"),
        "core.storage.self_s": layer_self.get("core.storage", 0.0),
        "core.storage.bytes_written": field_sum(
            "core.storage", "nbytes", lambda n: n.endswith(".written")),
        "core.storage.bytes_read": field_sum(
            "core.storage", "nbytes", lambda n: n.endswith(".read")),
        "core.storage.stored_ratio": _ratio(f["payload_bytes_stored"],
                                            f["payload_bytes_raw"]),
        "core.codec.packs": calls("core.codec", "codec.pack",
                                  "codec.pack_delta"),
        "core.codec.unpacks": calls("core.codec", "codec.unpack",
                                    "codec.unpack_segments"),
        "core.codec.bytes": field_sum("core.codec", "nbytes"),
        "core.codec.self_s": layer_self.get("core.codec", 0.0),
        "core.checkpoint.calls": calls("core.checkpoint"),
        "core.checkpoint.self_s": layer_self.get("core.checkpoint", 0.0),
        "testing.invariants.self_s": layer_self.get("testing.invariants",
                                                    0.0),
        "serve.queue_wait_s": _median(serve.get("queue_wait", [])),
        "serve.run_s": _median(serve.get("run_s", [])),
        "serve.rpc_calls": calls("serve", "serve.rpc"),
        "serve.self_s": layer_self.get("serve", 0.0),
        "app.self_s": layer_self.get("app", 0.0),
        "mesh.inserts": inserts,
        "mesh.inserts_per_vertex": _ratio(inserts, f.get("n_points", 0)),
        "mesh.self_s": layer_self.get("mesh", 0.0),
        "geometry.predicate_calls": predicates,
        "geometry.exact_calls": exact,
        "geometry.exact_ratio": _ratio(exact, predicates),
        "geometry.self_s": layer_self.get("geometry", 0.0),
        "geometry.exact_s": field_sum(
            "geometry", "total_s", lambda n: n.startswith("exact.")),
        "pumg.ghost.pushes": f.get("ghost_pushes", 0),
        "pumg.ghost.bytes": f.get("ghost_bytes", 0),
        "pumg.ghost.multicast_sends": f["multicast_sends"],
        "pumg.ghost.self_s": layer_self.get("pumg.ghost", 0.0),
        "mesh3d.face_queries": calls("mesh3d"),
        "mesh3d.self_s": layer_self.get("mesh3d", 0.0),
        "driver.self_s": layer_self.get("driver", 0.0),
    }


# ================================================================ checks
# Layer self times of a solo op may miss its ``wall_s`` by this much: the
# root span opens and closes a few statements inside the measured phase.
SELF_SUM_TOLERANCE_S = 0.005


def check_run(workload, ops: list, traced: list) -> list:
    """Output checks of every op, then determinism and tracing checks."""
    from workloads import diff

    reference = json.loads(REFERENCE.read_text()).get(workload.name)
    all_ops = ops + [op for op, _ in traced]
    for op in all_ops:
        workload.check(op, reference)
    problems = [p for op in all_ops for p in op.problems]
    first = ops[0].signature
    for k, op in enumerate(all_ops[1:], start=1):
        problems += [f"op {k} did not repeat op 0: {d}"
                     for d in diff(op.signature, first)[:5]]
    for op, rec in traced:
        if rec.open_spans():
            problems.append(f"{rec.open_spans()} spans left open")
        total_self = sum(rec.layer_self_s().values())
        if (workload.roots_cover_wall
                and abs(total_self - op.wall_s) > SELF_SUM_TOLERANCE_S):
            problems.append(f"layer self times sum to {total_self:.6f} s, "
                            f"traced wall_s is {op.wall_s:.6f} s")
    return problems


# ================================================================== main
def _repeat(run_op, budget: float, minimum: int) -> list:
    """Call ``run_op()`` while the next call is expected to end within
    ``budget`` seconds, and at least ``minimum`` times."""
    out, durations = [], []
    t0 = time.perf_counter()
    while len(out) < minimum or (time.perf_counter() - t0
                                 + statistics.median(durations) <= budget):
        # Runtimes hold reference cycles: free the last op's before the
        # next starts, so each op's memory peak is its own.
        gc.collect()
        start = time.perf_counter()
        out.append(run_op())
        durations.append(time.perf_counter() - start)
    return out


def run_workload(name: str, args, spec: dict) -> dict:
    """Measure and check one workload; returns its result object."""
    from tracing import LayerPatch, SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    budget = args.seconds / 2 if args.trace else args.seconds
    ops = _repeat(lambda: workload.op(args.seed), budget, MIN_OPS)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.prepare()
    traced = []
    if args.trace:

        def traced_op():
            recorder = SpanRecorder(clock=workload.span_clock)
            with LayerPatch(recorder):
                op = workload.op(args.seed, recorder)
            return op, recorder

        traced = _repeat(traced_op, budget, 1)

    defect_failures = 0
    if hasattr(workload, "known_defect"):
        state, error = workload.known_defect()
        defect_failures = int(state == "failed")
        print(f"known defect (pcdm/plate_with_holes, 4 parts): {state}"
              + (f": {error}" if error else ""))

    problems = check_run(workload, ops, traced)
    for problem in problems:
        print(f"CHECK FAILED: {name}: {problem}", file=sys.stderr)

    all_ops = ops + [op for op, _ in traced]
    attempted = sum(op.attempted for op in all_ops)
    failed = sum(op.failed for op in all_ops)
    if problems and not failed:
        failed = 1
    metrics = {}
    if args.trace:
        values = per_layer(traced, ops, defect_failures)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
            print(f"{m['name']:<34} {values[m['name']]:>16.6g} {m['unit']}")
        shares = traced[-1][1].layer_self_s()
        total = sum(shares.values())
        print("layer share of traced self time:")
        for layer, value in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<20} {100 * value / total:6.2f}%")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}.trace.json"
        written = traced[-1][1].write_chrome_trace(
            path, {"workload": name, "seed": args.seed})
        print(f"chrome trace: {path.relative_to(ROOT)} ({written} spans)")
    else:
        samples = end_to_end(ops, peak_rss_mib)
        for m in spec["end_to_end"]:
            values = samples[m["name"]]
            value = statistics.median(values)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:<20} {m['unit']:<10} median={value:.6g} "
                  f"iqr={_iqr(values):.6g} n={len(values)}")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {names} or 'all'")
    if args.workload != "all":
        _import_program()
        result = run_workload(args.workload, args, spec)
    else:
        # Every workload in turn, each in a process of its own so that
        # ``peak_rss_mib`` is its own peak; metric names get the
        # workload's prefix.
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for name in names:
            print(f"== {name}", flush=True)
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            print(child.stdout, end="", flush=True)
            try:
                one = json.loads(child.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                sys.exit(f"perfbench: {name} exited with "
                         f"{child.returncode} and no result")
            result["correct"] &= one["correct"] and child.returncode == 0
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update(
                (f"{name}/{k}", v) for k, v in one["metrics"].items())
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
