"""One pass of one workload in a fresh process; prints one JSON line.

Run by ``run.py``, never imported by it: every pass pays ``import
dynlab`` and builds its systems from scratch, as a user's process does.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from fractions import Fraction

import tracing
from workloads import WORKLOADS, digest_text, set_up

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def judge(op, output, error, reference):
    """Status of one finished operation: ok, capped or failed.

    A cap hit is an undecided answer, not a wrong one, unless the
    reference decided this operation (then it is a regression).
    """
    from dynlab.errors import StateExplosion

    if error is not None:
        if isinstance(error, StateExplosion):
            status, detail, digest = "capped", str(error), None
        else:
            return {"status": "failed", "digest": None,
                    "detail": f"{type(error).__name__}: {error}"}
    elif op.capped(output):
        status, detail, digest = "capped", "cap hit", None
    else:
        status, detail = "ok", ""
        digest = digest_text(op.canonical(output))
    expected = reference.get(op.id)
    if status == "capped":
        if expected is not None:
            return {"status": "failed", "digest": None,
                    "detail": "cap hit where the reference decided"}
        return {"status": "capped", "digest": None, "detail": detail}
    found = op.problems(output)
    if expected is not None and digest != expected:
        found.append("output differs from the reference")
    if found:
        return {"status": "failed", "digest": digest,
                "detail": "; ".join(found)}
    return {"status": "ok", "digest": digest, "detail": ""}


# Machine speed drifts on a shared host: the same work can take twice as
# long, for milliseconds or for minutes.  So the clock samples the speed
# while it times: a fixed piece of pure-Python work that never touches
# dynlab runs BRACKET_SAMPLES times before and after each timed region
# and, from a timer signal, every SAMPLE_PERIOD_S inside it.  The
# region's time, less the time spent sampling, is scaled by
# CALIBRATION_REF_S / (mean calibration time), which gives seconds at
# the speed where the calibration takes CALIBRATION_REF_S: its fastest
# time on a quiet 2-core Intel Xeon virtual machine.
CALIBRATION_REF_S = 0.0009
SAMPLE_PERIOD_S = 0.025
BRACKET_SAMPLES = 4
_SETS = [frozenset(range(i, i + 12)) for i in range(64)]
_FRACTIONS = [Fraction(i, 7) for i in range(1, 50)]


def calibration_s():
    """Seconds taken by the fixed calibration work."""
    start = time.perf_counter()
    larger = 0
    for r in range(20):
        seen = {}
        for i, a in enumerate(_SETS):
            common = a & _SETS[(i * 7 + r) % 64]
            seen[common] = seen.get(common, 0) + 1
        for x in _FRACTIONS:
            larger += x > _FRACTIONS[r % 49]
    return time.perf_counter() - start


class Clock:
    """Times regions in raw and speed-scaled seconds.

    ``sample=False`` keeps the timer signal out of the region, for the
    traced run, whose spans would otherwise include the sampling.
    """

    def __init__(self, sample=True):
        self.sample = sample

    def measure(self, fn):
        """(result or None, exception or None, raw s, scaled s)."""
        cals = [calibration_s() for _ in range(BRACKET_SAMPLES)]
        sampling = [0.0]

        def on_alarm(signum, frame):
            t0 = time.perf_counter()
            cals.append(calibration_s())
            sampling[0] += time.perf_counter() - t0

        if self.sample:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                             SAMPLE_PERIOD_S)
        result = error = None
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # judged by the caller: failures are data
            error = exc
        finally:
            elapsed = time.perf_counter() - start
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        raw = elapsed - sampling[0]
        cals += [calibration_s() for _ in range(BRACKET_SAMPLES)]
        return result, error, raw, raw * CALIBRATION_REF_S / statistics.mean(
            cals)


def run_pass(workload, seed, trace=False, setup_only=False, reference=None):
    """Set the workload up, run and judge its operations; returns a dict."""
    clock = Clock(sample=not trace)
    _, error, import_s, import_scaled = clock.measure(
        lambda: importlib.import_module("dynlab"))
    if error is not None:
        raise error
    tracer = uninstall = None
    if trace:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        tracer.active = True
    os.makedirs(OUT_DIR, exist_ok=True)

    def set_up_traced():
        with (tracer.span("setup") if trace else nullcontext()):
            return set_up(workload, seed, OUT_DIR)

    built, error, build_s, build_scaled = clock.measure(set_up_traced)
    if error is not None:
        raise error
    ops_factory, clean_up = built
    result = {"workload": workload, "seed": seed, "import_s": import_s,
              "setup_raw_s": import_s + build_s,
              "setup_s": import_scaled + build_scaled}
    if setup_only:
        clean_up()
        return result
    if trace:
        tracer.active = False
    ops = list(ops_factory())
    finished = []
    for op in ops:
        if trace:
            tracer.active = True
        with (tracer.span(f"op:{op.id}") if trace else nullcontext()):
            output, error, raw, scaled = clock.measure(op.run)
        if trace:
            tracer.active = False
        finished.append((op, output, error, raw, scaled))
    reference = load_reference() if reference is None else reference
    verdicts = []
    for op, output, error, raw, scaled in finished:
        verdict = judge(op, output, error, reference)
        verdicts.append({"id": op.id, "kind": op.kind, "raw_s": raw,
                         "seconds": scaled, **verdict})
    clean_up()
    result.update({
        "ops_s": sum(v["seconds"] for v in verdicts),
        "ops_raw_s": sum(v["raw_s"] for v in verdicts),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": verdicts,
    })
    if trace:
        uninstall()
        result["layers"] = tracing.layer_metrics(tracer, import_s)
        path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}-"
                                     f"{os.getpid()}.json")
        tracer.dump(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
    return result


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--freeze", action="store_true",
                        help="judge without the reference (to record it)")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.trace, args.setup_only,
                      {} if args.freeze else None)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
