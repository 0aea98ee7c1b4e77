"""Sweep benchmark: one workload per run, through ``harness.run_config``.

    python3 bench/run.py --workload fem3d --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory, nowhere else.  With ``--trace 0`` the run prints the
end-to-end metrics (``sweep_s``, ``setup_s``, ``peak_rss_mb``,
``fail_ratio``); with ``--trace 1`` it makes one untraced pass and one traced
replay and prints the per-layer metrics.  Every output is checked against
``golden/<workload>.json``.  The last line of standard output is the result
as one JSON object; details (environment, every pass, spans) go to
``bench/out/``.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import check_outputs, fitted_ratios, plain_record
from workloads import RATIOS, WORKLOADS, warmup_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3

# one fresh interpreter: import the library, run the warm-up config
SETUP_CODE = """\
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from hpexp.harness import run_config
with tempfile.TemporaryDirectory(dir=sys.argv[2]) as tmp:
    run_config(json.loads(sys.argv[3]), tmp)
"""


def import_program():
    """Import ``hpexp`` from this checkout's ``src/``; exit if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import hpexp
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import hpexp from {SRC}: {exc}")
    if Path(hpexp.__file__).resolve().parent != SRC.resolve() / "hpexp":
        raise SystemExit(f"bench: hpexp came from {hpexp.__file__}, not {SRC}")
    return hpexp


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "seed_note": "no workload draws random inputs; the seed is recorded only",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def time_setup(workload: str) -> list[float]:
    cfg = json.dumps(warmup_config(workload))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(OUT), cfg],
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def untraced_pass(run_config, config: dict) -> tuple[dict, float, float]:
    """(plain records by sweep, wall seconds, CPU seconds) of one full pass."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        c0, t0 = time.process_time(), time.perf_counter()
        results = run_config(config, tmp)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return ({name: [plain_record(r) for r in recs]
             for name, recs in results.items()}, wall, cpu)


def failed_operations(workload: str, records: dict, golden: dict) -> tuple[set, set]:
    """(all operation ids, failed operation ids) of one pass."""
    ratios = fitted_ratios(records, RATIOS[workload])
    results = check_outputs(records, ratios, golden)
    for oid, ok, why in results:
        if not ok:
            print(f"check failed: {oid}: {why}", file=sys.stderr)
    return {r[0] for r in results}, {r[0] for r in results if not r[1]}


def measure(workload: str, seconds: float, golden: dict) -> tuple[dict, dict]:
    setup = time_setup(workload)
    from hpexp.harness import run_config
    config = WORKLOADS[workload]
    untraced_pass(run_config, warmup_config(workload))
    passes, ops, failed = [], set(), set()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        records, wall, cpu = untraced_pass(run_config, config)
        passes.append({"wall_s": wall, "cpu_s": cpu})
        attempted_ids, failed_ids = failed_operations(workload, records, golden)
        ops |= attempted_ids
        failed |= failed_ids
    sweep_s = statistics.median(p["wall_s"] for p in passes)
    cpu_s = statistics.median(p["cpu_s"] for p in passes)
    metrics = {
        "sweep_s": (sweep_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        # add-one smoothing keeps the ratio above 0: a failure-free run
        # reads 1/(attempted+1), and one failure doubles it
        "fail_ratio": ((len(failed) + 1) / (len(ops) + 1), "ratio"),
    }
    details = {"setup_s": setup, "passes": passes,
               "diagnostics": {"cpu_s": cpu_s, "cpu_per_wall": cpu_s / sweep_s},
               "failed": sorted(failed)}
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}, details


def measure_traced(workload: str, golden: dict) -> tuple[dict, dict]:
    from hpexp.harness import run_config
    from tracing import COUNTS, Replay, Tracer, layer_metrics
    config = WORKLOADS[workload]
    untraced_pass(run_config, warmup_config(workload))
    records, wall, cpu = untraced_pass(run_config, config)
    ops, failed = failed_operations(workload, records, golden)
    replay = Replay(Tracer())
    traced = replay.run(config)
    same = json.dumps(traced, sort_keys=True) == json.dumps(records, sort_keys=True) \
        and fitted_ratios(traced, RATIOS[workload]) == fitted_ratios(records, RATIOS[workload])
    if not same:
        print("trace rejected: the traced replay's outputs differ from the "
              "untraced pass", file=sys.stderr)
    layers, extra = layer_metrics(replay)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
    layers["sweep.cpu_s"] = cpu
    layers["sweep.cpu_per_wall"] = cpu / wall
    units = {"fem.residual_max": "ratio", "trace.coverage": "ratio",
             "sweep.cpu_per_wall": "ratio"}
    metrics = {}
    for name, value in layers.items():
        counted = name in COUNTS or name.endswith(".fail")
        metrics[name] = (value, units.get(name, "count" if counted else "s"))
    details = {"untraced_wall_s": wall, "bitwise_equal": same,
               "failed": sorted(failed), "spans": replay.tr.spans, **extra}
    return ({"correct": same and not failed, "attempted": len(ops),
             "failed": len(failed), "metrics": metrics}, details)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    golden = json.loads((GOLDEN / f"{args.workload}.json").read_text())
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    print("env: " + json.dumps(env))
    if args.trace:
        result, details = measure_traced(args.workload, golden)
    else:
        result, details = measure(args.workload, args.seconds, golden)
    out = dict(result, metrics={k: {"value": v, "unit": u}
                                for k, (v, u) in result["metrics"].items()})
    name = f"{'TRACE' if args.trace else 'BENCH'}_{args.workload}.json"
    (OUT / name).write_text(json.dumps({"workload": args.workload, "env": env,
                                        "result": out, **details},
                                       indent=1, default=str) + "\n")
    for k, m in out["metrics"].items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
