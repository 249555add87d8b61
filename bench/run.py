"""qaclab benchmark: fastest scaled round per operation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process and thread.  The
workload is a fixed, seeded list of operations; the list is walked in
whole rounds until S seconds of rounds have been measured (at least
three rounds).  Every operation is preceded by a fixed pure-Python loop
(``calibrate``) whose time measures the machine's speed at that moment;
each time is scaled to a machine on which that loop takes CAL_REF_S,
and an operation's time is its fastest scaled round.  Outputs are
checked against reference.py once per operation, in the first round,
outside the timed calls; suite instances also have the calls the suite
made checked (suites.py).

The last line of standard output is one JSON object with ``correct``,
``attempted`` (the operations in the list), ``failed`` (those that raised
or were rejected by their check in any round) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (spans.py)
with ``--trace 1``.  Run records and span dumps go to bench/out/.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402

# Pinned before numpy is imported: default BLAS threading makes the tiny
# SVDs of the cut tests many times slower, and the runs are single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import sys  # noqa: E402

# qaclab iterates over sets of strings (variables, qubit labels), whose
# order follows the per-process string hash seed; early exits then make
# call counts and times differ between runs of the same seed.  Fix the
# hash seed by re-executing in place (same process, no child).
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_ROUNDS = 3
# The shared host this benchmark was written on runs at speeds up to
# 2x apart, in phases that last from a second to over a minute, so a
# fastest round can be slow in every round of a run.  The calibration
# loop slows with the operations around it: each operation's time is
# multiplied by CAL_REF_S over the fastest calibration within CAL_WINDOW
# operations on either side of it (in the order they ran), and so reads
# as on a machine on which ``calibrate`` takes CAL_REF_S.
CAL_WINDOW = 3
CAL_REF_S = 1.5e-4
# The set-up (a fresh import of qaclab, then building the workload) is
# made this many times, spread over the run, and setup_s takes the
# median, each scaled by the calibrations just before and after it.
SETUP_SAMPLES = 5
# Rounds stop early when the next one could push the run past this, so a
# run ends well inside three minutes even on a slow machine.
WALL_CAP_S = 150.0


def calibrate():
    """Fixed pure-Python work, about 0.15 ms on a quiet machine."""
    s = 0
    d = {}
    for i in range(1500):
        s += i * i % 7
        d[i & 63] = s
    return s


def cal_time():
    t0 = time.perf_counter()
    calibrate()
    return time.perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return p, args


def header(import_s):
    import numpy
    src_lines = sum(len(f.read_text().splitlines())
                    for f in sorted((ROOT / "src" / "qaclab").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "src_lines": src_lines,
        "import_s": import_s,
    }


def scaled(t, cals):
    """``t`` seconds at the speed the calibration samples ``cals``,
    taken around it, show, in seconds at CAL_REF_S per calibration."""
    return t * CAL_REF_S / min(cals)


def fresh_import():
    """Execute qaclab's modules again, as a new process would, then put
    back the modules in use.  numpy stays imported."""
    def ours():
        return [m for m in sys.modules if m.split(".")[0] == "qaclab"]
    saved = {m: sys.modules.pop(m) for m in ours()}
    try:
        importlib.import_module("qaclab.cli")
    finally:
        for m in ours():
            del sys.modules[m]
        sys.modules.update(saved)


def run_rounds(ops, seconds, set_up, tracer=None):
    """Walk the op list in whole rounds until ``seconds`` of rounds are
    measured, timing ``calibrate`` before every op.  Between rounds, at
    even steps of the run, call ``set_up`` until the set-up has been
    made SETUP_SAMPLES times (the first made ``ops``).  Returns
    per-op times and the calibration before each (time None for a round
    in which the op raised), the first problem of each failing op and
    the round count."""
    import workloads
    perf = time.perf_counter
    setups = 1
    times = [[] for _ in ops]
    cals = [[] for _ in ops]
    problems = {}
    rounds = 0
    measured = 0.0
    start = perf()
    while rounds < MIN_ROUNDS or measured < seconds:
        round_start = perf()
        skip_s = 0.0  # calibration and checks
        for i, op in enumerate(ops):
            c = cal_time()
            cals[i].append(c)
            skip_s += c
            if tracer is not None:
                tracer.op, tracer.round, tracer.active = i, rounds, True
            try:
                t0 = perf()
                out = workloads.checked_call(op) if rounds == 0 else op.call()
                t1 = perf()
            except Exception as exc:  # an op that raises counts as failed
                t1 = None
                out = exc
            finally:
                if tracer is not None:
                    tracer.active = False
            if t1 is None:
                times[i].append(None)
                problems.setdefault(i, f"raised {type(out).__name__}: {out}")
                continue
            times[i].append(t1 - t0)
            if rounds == 0:
                c0 = perf()
                try:
                    problem = op.check(out)
                except Exception as exc:  # a check that cannot read the output
                    problem = f"check raised {type(exc).__name__}: {exc}"
                skip_s += perf() - c0
                if problem is not None:
                    problems[i] = problem
        round_s = perf() - round_start - skip_s
        measured += round_s
        rounds += 1
        if setups < SETUP_SAMPLES and measured >= setups * seconds / SETUP_SAMPLES:
            set_up()
            setups += 1
        if perf() - start + round_s > WALL_CAP_S:
            break
    return times, cals, problems, rounds


def fastest_scaled(times, cals):
    """Each op's fastest round, scaled by the calibrations within
    CAL_WINDOW ops of it in running order; ops that never ran are left
    out."""
    n = len(times)
    order = [c for r in range(len(cals[0])) for c in (cal[r] for cal in cals)]
    fastest = []
    for i, ts in enumerate(times):
        best = None
        for r, t in enumerate(ts):
            if t is None:
                continue
            k = r * n + i
            u = scaled(t, order[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1])
            best = u if best is None else min(best, u)
        if best is not None:
            fastest.append(best)
    return fastest


def end_to_end(fastest, setup_s):
    import numpy as np
    ms = np.array(fastest) * 1e3
    return {
        "work_s": {"value": float(sum(fastest)), "unit": "s"},
        "op_p50_ms": {"value": float(np.percentile(ms, 50)), "unit": "ms"},
        "op_p90_ms": {"value": float(np.percentile(ms, 90)), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    if not (ROOT / "src" / "qaclab" / "__init__.py").is_file():
        print(f"error: no qaclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import qaclab  # noqa: F401
    import_s = time.perf_counter() - T0

    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    info = header(import_s)
    print(f"# qaclab bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} " + json.dumps(info))

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = OUT / f"work-{tag}"
    try:
        setup_raw, setup_cal = [], []

        def set_up():
            before = [cal_time() for _ in range(7)]
            t0 = time.perf_counter()
            fresh_import()
            ops = workloads.build(args.workload, args.seed, workdir)
            setup_raw.append(time.perf_counter() - t0)
            setup_cal.append(before + [cal_time() for _ in range(7)])
            return ops
        ops = set_up()

        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(extra_modules=[workloads])
        try:
            times, cals, problems, rounds = run_rounds(ops, args.seconds, set_up, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(fastest_scaled(times, cals),
                     [scaled(t, c) for t, c in zip(setup_raw, setup_cal)])
    correct = all(ops[i].known_fault for i in problems)
    for i, problem in sorted(problems.items()):
        mark = "known fault" if ops[i].known_fault else "FAILED"
        print(f"# {mark}: {ops[i].name}: {problem}")
    print(f"# {len(ops)} ops x {rounds} rounds; work_s={e2e['work_s']['value']:.4f}")
    if tracer is not None:
        tracer.dump(OUT / f"spans-{tag}.npz", [op.name for op in ops])
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in tracer.metrics(rounds).items()}
    else:
        metrics = e2e
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "header": info, "rounds": rounds,
        "setup_raw_s": setup_raw, "setup_cal": setup_cal,
        "end_to_end": e2e, "problems": {ops[i].name: p for i, p in problems.items()},
        "ops": [{"name": op.name, "times": ts, "cals": cs}
                for op, ts, cs in zip(ops, times, cals)],
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record))
    result = {"correct": correct, "attempted": len(ops),
              "failed": len(problems), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
