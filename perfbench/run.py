"""Benchmark entry point for phasebal.

    python3 perfbench/run.py --workload miqp_plan --seed 7 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``phasebal`` from its
``src/`` directory, in this one process with one worker thread per op.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it runs each op untraced and then traced and reports the per-layer
metrics.  The last line of standard output is the result object; the
line before it carries the run's context block and every raw sample.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from calibration import REFERENCE_KERNEL_S, reference_kernel  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
MIN_OPS = 3


def _import_program():
    """Import phasebal from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "phasebal", "__init__.py")):
        sys.exit(f"error: no phasebal sources under {SRC}")
    sys.path.insert(0, SRC)
    import phasebal
    if os.path.dirname(os.path.dirname(os.path.abspath(phasebal.__file__))) != SRC:
        sys.exit(f"error: phasebal imported from {phasebal.__file__}, not {SRC}")


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    return {key: {k: deps[key].get(k) for k in ("name", "version",
                                                "openblas configuration")
                  if k in deps[key]}
            for key in ("blas", "lapack") if key in deps}


def context(seed: int, load_before) -> dict:
    import numpy as np
    import scipy
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "seed": seed,
    }


def set_up(wl, seed: int) -> tuple[object, list[float], list[float]]:
    """Build inputs and warm up SETUP_REPEATS times; keep the last state.

    Returns the state, each set-up's time, and the reference kernel's
    time before the first set-up and after each one.
    """
    from workloads import make_inputs

    times, refs, state = [], [reference_kernel()], None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        state = wl.warm_up(make_inputs(seed))
        times.append(time.perf_counter() - started)
        refs.append(reference_kernel())
    return state, times, refs


def _scale(ref_before: float, ref_after: float) -> float:
    """Factor that rescales a time to the reference machine speed."""
    return 2.0 * REFERENCE_KERNEL_S / (ref_before + ref_after)


def measure(wl, state, seconds: float, ref: float, tracer=None) -> list[dict]:
    """Timed ops until the next one would overrun ``seconds``.

    The reference kernel runs between ops, outside the timed region; each
    sample's ``scale`` comes from the kernel runs on either side of it.
    With a tracer, every op runs twice, untraced and then traced, so both
    samples of a pair do the same work.
    """
    repeats = 1 if tracer is None else 2
    objective = getattr(wl, "objective", None)
    samples = []
    started = time.perf_counter()
    n = 0
    while True:
        i, traced = divmod(n, repeats)
        sample = {"op": i, "traced": bool(traced), "parts": {}, "problems": []}
        output = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with tracer.active() if traced else nullcontext():
                output, sample["parts"] = wl.run_op(state, i)
        except Exception:  # an op that raises counts as failed; keep measuring
            sample["problems"].append(traceback.format_exc(limit=3))
        sample["wall_s"] = time.perf_counter() - wall0
        sample["cpu_s"] = time.process_time() - cpu0
        ref_after = reference_kernel()
        sample["scale"] = _scale(ref, ref_after)
        ref = ref_after
        if output is not None:
            sample["problems"] += wl.check(state, i, output)
            if objective:
                sample["objective"] = objective(output)
        for problem in sample["problems"]:
            print(f"op {i} failed: {problem}", file=sys.stderr)
        samples.append(sample)
        n += 1
        elapsed = time.perf_counter() - started
        typical = statistics.median(s["wall_s"] + ref for s in samples)
        if (n >= MIN_OPS and n % repeats == 0
                and elapsed + typical * repeats > seconds):
            return samples


def _median(values, default=0.0) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def end_to_end(samples, setup_s: float) -> dict:
    ok = [s for s in samples if not s["problems"]] or samples
    return {
        "setup_s": (setup_s, "s"),
        "plan_s": (_median(s["wall_s"] * s["scale"] for s in ok), "s"),
        "plan_cpu_s": (_median(s["cpu_s"] * s["scale"] for s in ok), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer(samples, tracer) -> dict:
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    out = tracer.metrics(len(traced))
    for metric in ("pvur_star", "pu_star"):
        out[f"plan_s.{metric}"] = (
            _median(s["parts"][metric] * s["scale"] for s in plain
                    if metric in s["parts"]), "s")
    out["plan_objective"] = (_median(s.get("objective") for s in samples), "%")
    out["trace.overhead_ratio"] = (
        _median(t["wall_s"] * t["scale"] / (p["wall_s"] * p["scale"])
                for p, t in zip(plain, traced)), "ratio")
    return out


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_before = os.getloadavg()
    wl = WORKLOADS[args.workload]()
    imports_s = time.perf_counter() - PROCESS_START
    state, setup_times, refs = set_up(wl, args.seed)
    setup_s = (imports_s * _scale(refs[0], refs[0])
               + statistics.median(t * _scale(a, b)
                                   for t, a, b in zip(setup_times, refs, refs[1:])))
    tracer = Tracer() if args.trace else None
    samples = measure(wl, state, args.seconds, refs[-1], tracer)

    if tracer is None:
        metrics = end_to_end(samples, setup_s)
    else:
        metrics = per_layer(samples, tracer)
    failed = sum(1 for s in samples if s["problems"])
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": context(args.seed, load_before),
              "imports_s": imports_s, "setup_times_s": setup_times,
              "reference_kernel_s": refs, "samples": samples,
              "failed_ratio": failed / len(samples)}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    _import_program()
    sys.exit(main())
