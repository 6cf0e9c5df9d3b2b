"""shiftdetect benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-stats --seed 0 --seconds 25 --trace 0

Workloads (reasons in BENCHMARK.json, details in grids.py / monitor.py):

* grid-stats: ``shiftdetect bench`` over nored/pca/srp KS and pca/srp/uae
  MMD, 108 cells; the test layer does nearly all the work;
* grid-trained: ``shiftdetect bench`` over tae/bbsds/bbsdh and the domain
  classifier, 72 cells; network training dominates;
* monitor-stream: a closed loop of small target batches checked against a
  fitted reference with the library called directly.

End-to-end metrics (``--trace 0``):

* setup_s: start of a bench command until ``harness.fit_reducers``
  returns (corpus, split, reducer fitting); on monitor-stream, reducer
  fitting plus reducing the reference. Median of the run's set-ups;
* wall_s: one whole bench command through ``cli.main`` until the manifest
  is written; on monitor-stream, one pass over the seeded stream of checks,
  mean over the run's passes;
* cells_per_s: completed cells / (wall_s - setup_s) per bench command; on
  monitor-stream, two-sample tests per second of check time, which is
  6 x checks_per_s;
* check_p50_ms, check_p90_ms, checks_per_s: latency and rate of one check,
  one target sample of size s run through every method. On monitor-stream
  each untraced check is timed, every batch of the stream is checked many
  times, and the percentiles are over the batches' mean latencies. On the
  grids, whose timed commands carry no per-cell hook, they are derived
  from the same test-phase time as cells_per_s, and check_p90_ms equals
  check_p50_ms, the mean time of a check (grids.py,
  perfbench/layer_map.json);
* peak_rss_mb: peak resident set of the process (one process per run).

Medians are over the bench commands, set-ups or batches of a run, mostly
those on the less disturbed CPU; grids.py and monitor.py say which.

error_rate, failed / attempted, is the JSON line's ``failed`` and
``attempted``: a failure is a raise, a skipped cell or a failed output
check. It is also printed, with the run's environment, on the line before.

``--trace 1`` adds traced units (bench commands or check passes) and
prints the per-layer metrics listed in BENCHMARK.json instead; a metric
of a layer the workload does not exercise reads 0. ``--short`` runs a
reduced workload for the self-test (``perfbench/selftest.py``).
"""

from __future__ import annotations

import os

# BLAS threads are held at one for every commit measured, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
WORKLOADS = ("grid-stats", "grid-trained", "monitor-stream")


def _import_package():
    """Import shiftdetect from this checkout's src/, and nowhere else."""
    if not (SRC / "shiftdetect" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'shiftdetect'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import shiftdetect

    if not Path(shiftdetect.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported shiftdetect from {shiftdetect.__file__}, not {SRC}")


def _cpu_times():
    """Aggregate CPU jiffies from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except OSError:
        return None


def _speed_probe_ms() -> float:
    """Time of a fixed pure-Python loop: shows how fast the machine ran."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return 1e3 * (time.perf_counter() - start)


def _blas_threads():
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def _environment(before_load, before_cpu, before_probe) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    after_cpu = _cpu_times()
    steal = None
    if before_cpu and after_cpu and len(after_cpu) > 7:
        total = sum(after_cpu) - sum(before_cpu)
        steal = (after_cpu[7] - before_cpu[7]) / total if total else 0.0
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "loadavg_before": before_load, "loadavg_after": list(os.getloadavg()),
            "cpu_steal_share": steal,
            "speed_probe_ms_before": before_probe, "speed_probe_ms_after": _speed_probe_ms()}


def _declared(trace: bool) -> list:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="reduced workload for the self-test")
    args = parser.parse_args(argv)
    declared = _declared(bool(args.trace))

    before_load, before_cpu = list(os.getloadavg()), _cpu_times()
    before_probe = _speed_probe_ms()
    _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import grids
    import monitor

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "monitor-stream":
            result = monitor.run(args.seed, args.seconds, bool(args.trace), args.short)
        else:
            result = grids.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.short, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values = result["metrics"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = result["attempted"], result["failed"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not args.trace and not failed:
        raise RuntimeError(f"{args.workload} produced no value for {missing}")
    # an unexercised layer did no work; a failed run reports what it could
    values.update({name: 0.0 for name in missing})

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "short": args.short, "error_rate": failed / max(attempted, 1),
               **result["details"], "notes": result["details"]["notes"][:20],
               "env": _environment(before_load, before_cpu, before_probe)}
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
