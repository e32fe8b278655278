"""dynlab benchmark: run one named workload and print its metrics.

    python3 bench/run.py --workload satellites --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each pass runs in a fresh
single-threaded Python process (``worker.py``) that imports dynlab
from ``src/``, builds the workload's systems, runs its operations and
checks every output.  Passes repeat until ``--seconds`` have gone by
(at least one pass).  Times are scaled to a reference machine speed
measured around each timed region (``worker.Clock``); each operation's
time is its median over passes.  Set-up is also timed in a few extra
set-up-only processes when passes are few, so ``setup_s`` is a median
of several samples.

``--trace 1`` runs one untraced pass, then traced passes, and prints
the per-layer metrics (medians over traced passes) instead.  Spans are
written to ``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--freeze`` instead
records the reference digests of the default seed in
``bench/reference.json``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from workloads import BATTERY, DECOMPOSE, DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5         # set-up samples wanted per run ...
SETUP_SHARE = 0.25        # ... within this share of --seconds
DEADLINE_S = 175          # a run ends within 180 s, whatever the program
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def environment():
    """What the numbers depend on besides the code."""
    deps = {}
    for name in ("networkx", "numpy", "sympy"):
        try:
            deps[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            deps[name] = None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "dependencies": deps}


def check_checkout():
    if not os.path.isfile(os.path.join(SRC, "dynlab", "__init__.py")):
        raise BenchError(f"no dynlab sources under {SRC}; run from the root "
                         f"of a dynlab checkout")
    if "DYNLAB_SUBSET_CAP" in os.environ:
        raise BenchError("DYNLAB_SUBSET_CAP is set; it changes which "
                         "operations hit the cap, so runs would not compare")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


STARTED = time.perf_counter()


def run_worker(workload, seed, *flags):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    left = DEADLINE_S - (time.perf_counter() - STARTED)
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(left, 1))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, trace):
    """(untraced passes, traced passes, set-up-only samples)."""
    start = time.perf_counter()
    plain, traced, setups = [], [], []
    if trace:
        plain.append(run_worker(workload, seed))
        while not traced or time.perf_counter() - start < seconds:
            traced.append(run_worker(workload, seed, "--trace"))
        return plain, traced, setups
    while not plain or time.perf_counter() - start < seconds:
        plain.append(run_worker(workload, seed))
    typical = statistics.median(p["setup_s"] for p in plain)
    spent = 0.0
    while (len(plain) + len(setups) < SETUP_SAMPLES
           and spent + typical < SETUP_SHARE * seconds):
        t0 = time.perf_counter()
        setups.append(run_worker(workload, seed, "--setup-only")["setup_s"])
        spent += time.perf_counter() - t0
    return plain, traced, setups


def metric(name, value, unit, samples):
    print(f"  {name:38s} {value:14.6f} {unit:6s} n={samples}")
    return {"value": value, "unit": unit}


def end_to_end(plain, setups):
    """Each operation's time is its median over passes, in seconds scaled
    to the reference speed (see ``worker.Clock``); the kind totals add
    those medians up.  Set-up and memory are medians over samples."""
    scaled, raw = {}, {}
    for p in plain:
        for op in p["ops"]:
            key = (op["kind"], op["id"])
            scaled.setdefault(key, []).append(op["seconds"])
            raw.setdefault(key, []).append(op["raw_s"])
    print(f"  {'operation (median of passes)':58s} {'scaled s':>10s} "
          f"{'raw s':>10s}")
    for (kind, op_id), times in scaled.items():
        print(f"  {kind:9s} {op_id:48s} {statistics.median(times):10.4f} "
              f"{statistics.median(raw[kind, op_id]):10.4f}")
    per_op = {key: statistics.median(times) for key, times in scaled.items()}
    ops = [op for p in plain for op in p["ops"]]
    setup = [p["setup_s"] for p in plain] + setups
    n = len(plain)
    return {
        "setup_s": metric("setup_s", statistics.median(setup), "s",
                          len(setup)),
        "decompose_s": metric("decompose_s", sum(
            t for (kind, _), t in per_op.items() if kind == DECOMPOSE),
            "s", n),
        "battery_s": metric("battery_s", sum(
            t for (kind, _), t in per_op.items() if kind == BATTERY), "s", n),
        "ops_s": metric("ops_s", sum(per_op.values()), "s", n),
        "peak_rss_mb": metric("peak_rss_mb", statistics.median(
            p["peak_rss_mb"] for p in plain), "MB", n),
        "decided_share": metric("decided_share", sum(
            op["status"] != "capped" for op in ops) / len(ops), "ratio",
            len(ops)),
    }


def per_layer(plain, traced):
    """Times are medians over traced passes; counts must repeat exactly."""
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        values = [t["layers"][name][0] for t in traced]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                print(f"  warning: {name} differs between traced passes")
        metrics[name] = metric(name, value, unit, len(values))
    metrics["tracing_overhead_s"] = metric(
        "tracing_overhead_s",
        statistics.median(t["ops_s"] for t in traced)
        - statistics.median(p["ops_s"] for p in plain), "s", len(traced))
    return metrics


def freeze():
    """Record the digests of every operation at the default seed."""
    digests = {}
    for workload in WORKLOADS:
        result = run_worker(workload, DEFAULT_SEED, "--freeze")
        for op in result["ops"]:
            if op["status"] == "failed":
                raise BenchError(f"{workload}: {op['id']}: {op['detail']}")
            digests[op["id"]] = op["digest"]
            print(f"{workload:15s} {op['status']:7s} {op['id']}")
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED,
                   "note": "sha256 of each operation's canonical output at "
                           "the default seed; null marks an operation that "
                           "hit a resource cap when frozen",
                   "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one dynlab benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="record reference digests at the default seed")
    args = parser.parse_args(argv)
    try:
        check_checkout()
        compileall.compile_dir(SRC, quiet=1)
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.freeze:
            freeze()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        env = environment()
        print(f"environment: {json.dumps(env, sort_keys=True)}")
        print(f"workload {args.workload} seed {args.seed} "
              f"seconds {args.seconds:g} trace {args.trace}")
        plain, traced, setups = run_passes(args.workload, args.seed,
                                           args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    ops = [op for p in plain + traced for op in p["ops"]]
    failed = [op for op in ops if op["status"] == "failed"]
    for op in failed:
        print(f"  FAILED {op['id']}: {op['detail']}")
    for op in {op["id"]: op for op in ops if op["status"] == "capped"}.values():
        print(f"  undecided (cap hit) {op['id']}")
    metrics = (per_layer(plain, traced) if args.trace
               else end_to_end(plain, setups))
    record = {"environment": env, "workload": args.workload,
              "seed": args.seed, "passes": plain, "traced": traced,
              "setup_only": setups}
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-"
                                    f"{args.trace}.json"), "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
