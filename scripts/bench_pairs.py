#!/usr/bin/env python3
"""Time a parent and a changed checkout in alternating benchmark pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload ld3f_oracle \\
        --seed 7 --pairs 10 --seconds 25

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, from
that checkout's root and one run at a time.  The side that runs first
alternates: the parent in pair 1, the change in pair 2, and so on.  For
each end-to-end metric it prints the parent's and the change's median and
quartiles, the ratio of the medians (change / parent) and the pairs the
change won: strictly better in the direction ``BENCHMARK.json`` in
CHANGE_DIR declares, lower where it declares none.  ``--workload`` takes
a comma-separated list, ``miqp_plan,ga_plan,ld3f_oracle,validate_long``
say; the workloads run one after another, each with all its pairs, and
each prints its own table as soon as its pairs are done.  It exits 1 if
any run failed: a nonzero exit, no result line, ``correct: false`` or
``failed > 0``.  The runs write no bytecode, so nothing lands under either
checkout's ``perfbench/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict:
    """The result object: the last line of a run's standard output."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run; a run that breaks is a result
    with ``correct: false`` and its error."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    try:
        result = parse_result(out.stdout)
    except json.JSONDecodeError:
        result = {}
    if out.returncode != 0 or "metrics" not in result:
        return {"correct": False, "error": f"exit {out.returncode}: {out.stderr.strip()[-500:]}"}
    return result


def failures(pairs) -> list[str]:
    """One message per run that failed or reported a failed op."""
    return [f"pair {k} {side}: correct={result.get('correct')} failed={result.get('failed')}"
            + (f" {result['error']}" if "error" in result else "")
            for k, pair in enumerate(pairs, start=1) for side, result in zip(SIDES, pair)
            if not result.get("correct") or result.get("failed", 0) > 0]


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, better=None) -> list[dict]:
    """Per end-to-end metric of the pairs' results: each side's quartiles
    (median in the middle), the ratio of the medians and the change's wins.
    ``better`` maps a metric to "lower" or "higher" (default "lower")."""
    better = better or {}
    ok = [pair for pair in pairs if all("metrics" in r for r in pair)]
    if not ok:
        return []
    rows = []
    for name, entry in ok[0][0]["metrics"].items():
        values = [[r["metrics"][name]["value"] for r in pair] for pair in ok]
        parent, change = (_quartiles([v[i] for v in values]) for i in (0, 1))
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        rows.append({"metric": name, "unit": entry["unit"], "parent": parent, "change": change,
                     "ratio": change[1] / parent[1] if parent[1] else float("nan"),
                     "wins": sum(sign * (c - p) < 0 for p, c in values), "pairs": len(ok)})
    return rows


def format_rows(rows) -> list[str]:
    lines = [f"{'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
             f"{'ratio':>7} {'wins':>6}"]
    for r in rows:
        cells = [f"{q[1]:.4f} [{q[0]:.4f}, {q[2]:.4f}] {r['unit']:<2}"
                 for q in (r["parent"], r["change"])]
        lines.append(f"{r['metric']:<12} {cells[0]:>34} {cells[1]:>34} {r['ratio']:>7.3f} "
                     f"{r['wins']:>3}/{r['pairs']}")
    return lines


def declared_directions(checkout: str) -> dict:
    try:
        with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
            return {m["name"]: m["better"] for m in json.load(fh).get("end_to_end", [])}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def workload_list(text: str) -> list[str]:
    """The ``--workload`` names: comma-separated, none empty or repeated."""
    names = [name.strip() for name in text.split(",")]
    if not all(names) or len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"expected distinct comma-separated names, got {text!r}")
    return names


def run_pairs(dirs, workload: str, seed: int, count: int, seconds: float) -> list[tuple]:
    """``count`` alternating (parent, change) result pairs of one workload."""
    pairs = []
    for k in range(count):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        pair = [None, None]
        for i in order:
            pair[i] = run_once(dirs[i], workload, seed, seconds)
            plan = pair[i].get("metrics", {}).get("plan_s", {}).get("value")
            print(f"{workload} pair {k + 1} {SIDES[i]}: plan_s {plan}", file=sys.stderr,
                  flush=True)
        pairs.append(tuple(pair))
    return pairs


def report(workload: str, seed: int, seconds: float, pairs, better=None) -> list[str]:
    """One workload's table: a title line, the metric rows, then one line per
    failed run."""
    return ([f"{workload} seed {seed}, {len(pairs)} pairs of {seconds:g} s"]
            + format_rows(summarize(pairs, better))
            + [f"failed: {line}" for line in failures(pairs)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True, type=workload_list,
                        help="one workload or a comma-separated list")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    dirs = (args.parent_dir, args.change_dir)
    for d in dirs:
        if not os.path.isfile(os.path.join(d, "perfbench", "run.py")):
            parser.error(f"{d} has no perfbench/run.py")
    better, failed = declared_directions(args.change_dir), False
    for k, workload in enumerate(args.workload):
        pairs = run_pairs(dirs, workload, args.seed, args.pairs, args.seconds)
        print(("\n" if k else "") + "\n".join(report(workload, args.seed, args.seconds,
                                                      pairs, better)), flush=True)
        failed = failed or bool(failures(pairs))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
