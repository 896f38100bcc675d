"""trajkit benchmark: four workloads, end-to-end metrics and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload vae-train --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``setup_s`` is the median
set-up time of a few fresh processes (this script with ``--setup-only``),
each timed from just before it is started to where its first timed
operation would begin.  Every time in the JSON is corrected for the shared
machine's speed by a reference loop timed right after it (harness.corrected).  ``--trace 1`` first runs the
workload untraced for a share of the time, then again with every public
trajkit function wrapped (see tracer.py), and reports per-layer metrics and
the tracing overhead; spans go to ``.perfbench_runs/``.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  The exit
code is 1 when an output check fails, 2 when trajkit's sources are missing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Times are corrected for the machine's speed: a shared 2-CPU machine runs
# the same code up to 1.75 times slower for seconds or minutes at a time, so
# raw times of runs a few minutes apart spread by 20-30% of their median.
E2E = (  # name, unit
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("throughput_per_s", "1/s"),
)
WORKLOADS = ("vae-train", "flow-train", "sample", "analyze")
SETUP_REPS = {"vae-train": 5, "flow-train": 5, "sample": 3, "analyze": 5}  # fresh processes
SETUP_TIMEOUT_S = 120
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run


def cap_blas_threads() -> None:
    """Keep BLAS threads at or below the CPUs this process may use."""
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        val = os.environ.get(var, "")
        if val.isdigit() and int(val) > ncpu:
            os.environ[var] = str(ncpu)


def blas_threads():
    """Threads of the OpenBLAS numpy loaded, asked through ctypes; None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def environment(seed: int, load_start) -> dict:
    import numpy as np
    import trajkit
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of its build config
        blas = None
    return {"trajkit": trajkit.__version__, "numpy": np.__version__,
            "python": platform.python_version(), "blas": blas, "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed, "loadavg_start": load_start}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metrics ---------------------------------------------------------------------


PRIMARY = {"vae-train": "step", "flow-train": "step", "sample": "euler10", "analyze": "scene"}


def primary(workload: str, run) -> list:
    """Latencies behind latency_p50_s, latency_p90_s and the traced run's
    overhead: the VAE step, the flow pretraining step, the Euler-10 sample
    (dopri5, at about 80% of the busy time, drives throughput_per_s) and the
    scene."""
    return run.latencies[PRIMARY[workload]]


def setup_times(workload: str, seed: int) -> list:
    """Seconds from just before a fresh process is started to where its first
    timed operation would begin, corrected by the reference time the process
    measures there, for SETUP_REPS[workload] processes in turn."""
    from harness import REF_S, HarnessError
    times = []
    for _ in range(SETUP_REPS[workload]):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", "0", "--setup-only"]
        t0 = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) < 2:
            raise HarnessError(f"set-up process failed: {proc.stderr.strip()[-2000:]}")
        end, ref = float(words[-2]), float(words[-1])
        times.append((end - t0) * REF_S / ref)
    return times


def e2e_metrics(workload: str, run, setups: list) -> dict:
    """The JSON metrics; every time corrected for the machine's speed."""
    from harness import corrected, percentile
    fixed = {k: corrected(run.latencies[k], run.refs[k]) for k in run.latencies}
    lat = fixed[PRIMARY[workload]]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_s": percentile(lat, 0.5),
        "latency_p90_s": percentile(lat, 0.9),
        "throughput_per_s": run.items / sum(sum(xs) for xs in fixed.values()),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E}


def named_metrics(workload: str, run, e2e: dict) -> list:
    """The workload's metrics under their own names, in wall time, and the
    reference loop's median time: (name, value, unit, samples)."""
    from harness import percentile, tail
    refs = [r for xs in run.refs.values() for r in xs]
    rows = [("reference_loop_s", statistics.median(refs), "s", len(refs)),
            ("setup_s", e2e["setup_s"]["value"], "s", SETUP_REPS[workload]),
            ("peak_rss_mb", e2e["peak_rss_mb"]["value"], "MB", None),
            ("error_rate", run.tally.error_rate, "ratio", run.tally.attempted)]
    classes = {"vae-train": [("step", "step", 0.9)],
               "flow-train": [("step", "step", 0.9), ("finetune_step", "finetune_step", 0.9)],
               "sample": [("euler10", "euler10", 0.9), ("dopri5", "dopri5", 0.75)],
               "analyze": [("scene", "scene", 0.9)]}[workload]
    for label, key, q in classes:
        xs = run.latencies[key]
        rows.append((f"{label}_p50_s", percentile(xs, 0.5) if xs else None, "s", len(xs)))
        rows.append((f"{label}_p{round(q * 100)}_s", tail(xs, q), "s", len(xs)))
    rate = {"vae-train": "train_items_per_s", "flow-train": "train_items_per_s",
            "sample": "samples_per_s", "analyze": "scenes_per_s"}[workload]
    rows.append((rate, run.items / run.busy_s, "1/s", run.items))
    return rows


# -- running ---------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as wl
    from harness import reference_time
    from tracer import CoverageError, Tracer
    import layers

    work = ROOT / ".perfbench_runs" / f"work-{os.getpid()}"
    fn = wl.WORKLOADS[name]
    speed = None if trace else functools.partial(reference_time, time.perf_counter)
    probe = wl.Probe(time.perf_counter, speed)
    probe.install()
    try:
        if not trace:
            run = fn(seed, seconds, wl.Ctx(time.perf_counter, probe, work=work, speed=speed))
            e2e = e2e_metrics(name, run, setup_times(name, seed))
            return {"run": run, "e2e": e2e, "named": named_metrics(name, run, e2e)}
        # untraced share: the reference for the tracing overhead, and the output checks
        base = fn(seed, UNTRACED_SHARE * seconds,
                  wl.Ctx(time.perf_counter, probe, tails=False, work=work))
        probe.uninstall()
        tracer = Tracer()
        tracer.install()
        probe = wl.Probe(tracer.now)
        probe.sc.on_boundary = tracer.step_boundary
        probe.install()

        try:
            traced = fn(seed, (1 - UNTRACED_SHARE) * seconds,
                        wl.Ctx(tracer.now, probe, checks=False, tails=False,
                               mark=tracer.mark, work=work))
        except CoverageError as exc:
            base.check("tracer covers every tape node", False, exc)
            traced = None
        finally:
            probe.uninstall()
            tracer.uninstall()
        out_dir = ROOT / ".perfbench_runs"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace-{name}-seed{seed}.npz")
        per_layer = layers.per_layer(tracer, traced, primary(name, base),
                                     primary(name, traced) if traced else None)
        if traced is not None:
            base.check("tracer covers every tape node", True)
        return {"run": base, "per_layer": per_layer}
    finally:
        probe.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def setup_only(name: str, seed: int):
    """Set the workload up as a timed run would; return the monotonic time at
    which its first timed operation would begin, and the median of a few
    reference times taken there."""
    import workloads as wl
    from harness import reference_time

    work = ROOT / ".perfbench_runs" / f"work-{os.getpid()}"
    probe = wl.Probe(time.perf_counter)
    probe.install()
    try:
        wl.WORKLOADS[name](seed, 0.0, wl.Ctx(time.perf_counter, probe, setup_only=True,
                                             work=work))
        end = time.monotonic()
        return end, statistics.median(reference_time(time.perf_counter) for _ in range(5))
    finally:
        probe.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def report(name: str, res: dict, trace: bool) -> None:
    run = res["run"]
    print(f"== {name}")
    if not trace:
        for metric, value, unit, n in res["named"]:
            shown = "n/a (too few samples for this percentile)" if value is None else f"{value:.6g}"
            count = "" if n is None else f"  (n={n})"
            print(f"  {metric:<24} {shown} {unit}{count}")
    else:
        for metric, m in res["per_layer"].items():
            print(f"  {metric:<46} {m['value']:.6g} {m['unit']}")
    for check, (passed, failed, detail) in run.checks.items():
        status = "ok  " if failed == 0 else "FAIL"
        print(f"  [{status}] {check}: {passed} passed, {failed} failed  {detail}")
    for err in run.tally.errors:
        print(f"  failed op: {err}")


def main(argv=None) -> int:
    load_start = loadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up one workload, print the monotonic time it ended, exit")
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only takes one workload")

    if not (SRC / "trajkit" / "__init__.py").is_file():
        print(f"error: trajkit sources not found under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import trajkit
    if Path(trajkit.__file__).resolve().parent != SRC / "trajkit":
        print(f"error: imported trajkit from {trajkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(*map(repr, setup_only(args.workload, args.seed)))
        return 0

    env = environment(args.seed, load_start)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    env["loadavg_end"] = loadavg()
    print("# environment " + json.dumps(env, sort_keys=True))
    for n, res in results.items():
        report(n, res, bool(args.trace))

    key = "per_layer" if args.trace else "e2e"
    correct = all(r["run"].correct for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]][key]
    else:
        metrics = {f"{n}/{m}": v for n, r in results.items() for m, v in r[key].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["run"].tally.attempted for r in results.values()),
                      "failed": sum(r["run"].tally.failed for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
