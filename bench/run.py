"""lambda-forge benchmark: one command runs one workload and prints its metrics.

    python3 bench/run.py --workload witt-numeric --seed 1 --seconds 10 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.  Run it
from anywhere: the program is imported from the ``src`` directory next to
this one.  See README.md in this directory for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

SPAN_METRICS = [
    "poly.mul", "poly.pow", "poly.div_int", "poly.substitute", "poly.evaluate",
    "poly.from_json", "poly.add", "series.mul", "witt.gen", "witt.apply", "witt.ghost",
    "witt.disk_load", "delta.extend", "lambdaring.basis_build", "lambdaring.to_x_basis",
    "lambdaring.adams", "lambdaring.joyal_rezk", "abelian.fracture", "textparse.parse",
    "verify.witt-axioms", "verify.ghost-compat", "verify.joyal-rezk", "verify.wilkerson",
    "verify.w2-pullback", "verify.coalgebra", "verify.fracture",
]
# per-layer metric -> (tracer key, unit)
PER_LAYER = {"rings.normalize_calls": ("rings.normalize_calls", "count"),
             "rings.div_int_calls": ("rings.div_int_calls", "count"),
             "poly.init_calls": ("poly.init_calls", "count"),
             "poly.mul_calls": ("poly.mul_calls", "count"),
             "poly.mul_terms_out": ("poly.mul_terms_out", "count"),
             "poly.substitute_calls": ("poly.substitute_calls", "count"),
             "poly.evaluate_calls": ("poly.evaluate_calls", "count"),
             "witt.gen_calls": ("witt.gen_calls", "count"),
             "witt.memo_hits": ("witt.memo_hits", "count"),
             "witt.gen_terms": ("witt.gen_terms", "count"),
             "witt.disk_loads": ("witt.disk_loads", "count"),
             "lambdaring.to_x_basis_calls": ("lambdaring.to_x_basis_calls", "count")}
PER_LAYER.update({f"{name}_s": (f"{name}_s", "s") for name in SPAN_METRICS})
PER_LAYER.update({"cli.import_s": (None, "s"), "cli.main_s": (None, "s"),
                  "cli.process_s": (None, "s"), "trace.overhead_pct": (None, "%")})


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child can subtract its parent's reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "lambda_forge", "__init__.py")):
        sys.exit(f"bench: no lambda-forge sources at {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def _emit(obj):
    print(json.dumps(obj, sort_keys=True), flush=True)


# ---------------------------------------------------------------------------
# worker processes


def _workload(name, in_process=False):
    from workloads import WORKLOADS, CliTour

    cls = WORKLOADS[name]
    return cls(ROOT, in_process) if cls is CliTour else cls()


def _round_maker(workload, seed):
    import random

    rng = random.Random(seed * 7919 + 1)
    return lambda i: workload.round(rng)


def worker(args):
    """Set up (timed from the parent's spawn), then run the timed rounds."""
    _import_program()
    import harness

    workload = _workload(args.workload)
    try:
        workload.setup(args.seed)
        setup_raw = _clock() - args.spawn_t
        _emit({"setup_raw": setup_raw, "setup_scaled": harness.scaled_setup(setup_raw, args.slices)})
        if args.role == "setup":
            return
        res = harness.run_rounds(_round_maker(workload, args.seed), args.seconds,
                                 calibration=workload.calibration or harness.CPU)
        _emit({
            "raw": res.raw, "scaled": res.scaled, "round_s": harness.round_seconds(res.keys, res.scaled),
            "round_ops": len(set(res.keys)), "attempted": res.attempted,
            "failed": res.failed, "failures": res.failures[:20], "wrong": res.wrong, "rounds": res.rounds,
            "peak_rss_mb": workload.peak_rss_mb(),
        })
    finally:
        workload.close()


def trace_worker(args):
    """Traced set-up, then untraced and traced rounds in turn."""
    _import_program()
    import harness
    import lambda_forge.cli  # noqa: F401  (every module, so all can be patched)
    from spans import Tracer

    tracer = Tracer()
    workload = _workload(args.workload, in_process=args.workload == "cli-tour")
    # traced? -> [raw seconds, scaled seconds, rounds]
    totals = {True: [0.0, 0.0, 0], False: [0.0, 0.0, 0]}
    make = _round_maker(workload, args.seed)

    def make_round(i):
        (tracer.install if i % 2 else tracer.uninstall)()
        ops = make(i)
        for op in ops:
            op.check = _paused(tracer, op.check)
        return ops

    def on_round(i, raw, scaled):
        entry = totals[bool(i % 2)]
        entry[0] += raw
        entry[1] += scaled
        entry[2] += 1

    try:
        tracer.install()
        workload.setup(args.seed)
        tracer.uninstall()
        at_setup = tracer.snapshot()
        res = harness.run_rounds(make_round, args.seconds, min_rounds=2, on_round=on_round)
        tracer.uninstall()
        final = tracer.snapshot()
        traced_rounds = totals[True][2]
        values = {}
        for metric, (key, _) in PER_LAYER.items():
            if key is not None:
                base = at_setup.get(key, 0)
                values[metric] = base + (final.get(key, 0) - base) / traced_rounds
        untraced_rounds = totals[False][2]
        values["trace.overhead_pct"] = 100.0 * (
            (totals[True][1] / traced_rounds) / (totals[False][1] / untraced_rounds) - 1.0)
        values["cli.import_s"] = values["cli.main_s"] = values["cli.process_s"] = 0.0
        attempted, failed, wrong, failures = res.attempted, res.failed, res.wrong, res.failures
        if args.workload == "cli-tour":
            # in-process cli.main, untraced; then the same commands as
            # processes, for the share of their time outside cli.main
            values["cli.main_s"] = totals[False][0] / untraced_rounds
            workload.in_process = False
            sub = harness.run_rounds(make, 0.0)
            values["cli.process_s"] = sum(sub.raw) - values["cli.main_s"]
            values["cli.import_s"] = _import_seconds()
            attempted += sub.attempted
            failed += sub.failed
            wrong = wrong + sub.wrong
            failures = failures + sub.failures
        _emit({"values": values, "attempted": attempted, "failed": failed, "wrong": wrong,
               "failures": failures[:20], "rounds": res.rounds})
    finally:
        workload.close()


def _paused(tracer, check):
    def paused_check(res):
        with tracer.paused():
            return check(res)
    return paused_check


def _import_seconds(samples: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); import lambda_forge.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the parent: spawns the workers, aggregates, prints


def _spawn(args, role, deadline):
    import harness

    slices = ",".join(repr(t) for t in harness.setup_slices())
    spawn_t = _clock()
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--spawn-t", repr(spawn_t), "--slices", slices]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"bench: {role} process did not finish in time")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        sys.exit(f"bench: {role} process exited with {proc.returncode}")
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    The CPUs of a shared host run at different speeds at the same moment,
    so calibration slices and operations must run on the same one.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def parent(args):
    _import_program()
    deadline = time.monotonic() + DEADLINE_S
    _pin_to_one_cpu()
    if args.trace:
        (res,) = _spawn(args, "trace", deadline)
        metrics = {name: {"value": res["values"][name], "unit": unit}
                   for name, (_, unit) in PER_LAYER.items()}
        print(f"# {args.workload} traced: {res['rounds']} rounds, tracing overhead "
              f"{res['values']['trace.overhead_pct']:.1f}%")
        _report(res, metrics)
        return
    setups = []
    for i in range(SETUP_SAMPLES):
        lines = _spawn(args, "worker" if i == SETUP_SAMPLES - 1 else "setup", deadline)
        setups.append(lines[0])
    res = lines[1]
    scaled, raw = res["scaled"], res["raw"]
    metrics = {
        "setup_s": {"value": statistics.median(s["setup_scaled"] for s in setups), "unit": "s"},
        "ops_per_s": {"value": res["round_ops"] / res["round_s"], "unit": "1/s"},
        "op_p50_ms": {"value": 1000.0 * statistics.median(scaled), "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    print(f"# {args.workload}: {res['rounds']} rounds, {len(raw)} operations; "
          f"raw wall: {len(raw) / sum(raw):.2f} ops/s, p50 {1000 * statistics.median(raw):.3f} ms, "
          f"setup {statistics.median(s['setup_raw'] for s in setups):.3f} s; "
          f"scaled tails (reference only): p90 {1000 * _quantile(scaled, 0.9):.3f} ms, "
          f"p99 {1000 * _quantile(scaled, 0.99):.3f} ms")
    _report(res, metrics)


def _report(res, metrics):
    for line in res["failures"]:
        print(f"# failed: {line}", file=sys.stderr)
    for line in res["wrong"][:20]:
        print(f"# wrong answer: {line}", file=sys.stderr)
    _emit({"correct": not res["wrong"], "attempted": res["attempted"], "failed": res["failed"],
           "metrics": metrics})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("witt-symbolic", "witt-numeric", "lambda-xbasis", "cli-tour"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("parent", "setup", "worker", "trace"), default="parent",
                    help=argparse.SUPPRESS)
    ap.add_argument("--spawn-t", type=float, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--slices", type=lambda text: [float(t) for t in text.split(",")], default=[],
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.role == "parent":
        parent(args)
    elif args.role == "trace":
        trace_worker(args)
    else:
        worker(args)


if __name__ == "__main__":
    main()
