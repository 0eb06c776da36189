"""Run one workload of the hclab benchmark and print its metrics.

    python3 perfbench/run.py --workload study_block4 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; hclab is imported from ``src/``.
``--trace 0`` repeats the workload's job until ``--seconds`` have passed and
reports the end-to-end metrics as medians over the jobs.  ``--trace 1`` does
the same untraced jobs, then one job with every layer wrapped, and reports the
per-layer metrics of that job; its spans go to ``perfbench/out/``.  The last
line of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "finest_solve_s": "s",
    "peak_rss_mb": "MB",
    "final_J": "1",
}


def pin_blas_threads() -> int:
    """Run numpy's BLAS on one thread, which is at most nproc and keeps the
    timings of the small batched kernels steady; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy

    for lib in sorted((Path(numpy.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=60)
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    """Content hash of the hclab sources and the stock study config, which
    identifies the measured code where no git metadata exists."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "hclab").rglob("*.py")) + [ROOT / "configs" / "default_study.json"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(args, nproc: int, params: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": params, "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": blas_threads(),
        "git_sha": git_sha(), "source_sha256": source_sha256(),
    }


def measure_setup(args) -> list:
    """Wall times of fresh interpreters that import hclab and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("study_block4", "study_fiber3d", "limit_block4"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    if not (ROOT / "src" / "hclab" / "__init__.py").is_file():
        print(f"error: no hclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.setup_only:
        workloads.build(args.workload, args.seed)
        return 0
    import spans

    setup_times = [] if args.trace else measure_setup(args)
    job = workloads.build(args.workload, args.seed)
    checks = workloads.Checks()
    tracer = spans.Tracer()
    results = []
    tracer.install(spans.targets(full=False))
    try:
        # Stop before a job that would, at the mean pace so far, end past --seconds.
        start = time.perf_counter()
        while True:
            tracer.run_id += 1
            results.append(job.run(tracer, checks))
            elapsed = time.perf_counter() - start
            if elapsed * (len(results) + 1) / len(results) > args.seconds:
                break
        if args.trace:
            tracer.uninstall()
            tracer.install(spans.targets(full=True))
            tracer.run_id += 1
            traced = job.run(tracer, checks)
    finally:
        tracer.uninstall()

    print("stamp " + json.dumps(stamp(args, nproc, workloads.params(args.workload))))
    ok = checks.failed == 0
    tag = "" if ok else "INVALID "
    if args.trace:
        values = spans.layer_metrics(tracer.run_spans(tracer.run_id))
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - statistics.median(r["wall_s"] for r in results)
        units = spans.per_layer_units()
        path = workloads.OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
        for name, unit in units.items():
            print(f"{tag}{name:<48} {values[name]:.6g} {unit}")
    else:
        samples = {name: [r[name] for r in results] for name in results[0]}
        samples["setup_s"] = setup_times
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
        for name in list(units) + [name for name in samples if name not in units]:
            count = f"median of {len(samples[name])}" if name in samples else "whole run"
            where = "" if name in units else ", not in BENCHMARK.json"
            unit = units.get(name, "s" if name.endswith("_s") else "1")
            print(f"{tag}{name:<16} {values[name]:.6g} {unit} ({count}{where})")
    print(f"ops_failed       {checks.failed}/{checks.attempted}"
          f" = {checks.failed / checks.attempted:.6g}")
    for name in checks.failures:
        print(f"FAILED check: {name}")
    print(json.dumps({
        "correct": ok, "attempted": checks.attempted, "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
