"""grkhs benchmark driver: one workload per process, untraced or traced.

Run from the repository root:

    python3 benchmarks/run.py --workload spline_wce --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all          # each workload in its own process
    python3 benchmarks/run.py --write-reference       # store default-seed references

The program is imported from ``src/`` of the same checkout, never from an
installed copy.  BLAS is pinned to one thread.  The callers form a closed
loop: one caller, no concurrency, the next op starts when the previous one
returns.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine facts and each metric with its unit and sample count.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("spline_wce", "interp", "enumerate", "complexity")
# the seed whose first op the stored references come from
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
MIN_TRACE_REPS = 2

# (metric, unit) as in the end-to-end list of BENCHMARK.json; these go into
# the result line of an untraced run
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
# printed beside them but not gated: op_p90_ms has fewer than ten samples
# beyond it in one run, and fail_frac is 0 on a correct run
PRINTED_ONLY = [("op_p90_ms", "ms")]


def load_program():
    """Import grkhs from this checkout's src/ and the benchmark's own modules."""
    if not (SRC / "grkhs" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source at {SRC / 'grkhs'}")
    sys.path.insert(0, str(SRC))
    import grkhs
    import grkhs.cli  # noqa: F401  (bound before tracing wraps it)

    if Path(grkhs.__file__).resolve().parent != (SRC / "grkhs").resolve():
        sys.exit(f"benchmark: grkhs imported from {grkhs.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def load_references(workload):
    if not REFERENCE.is_file():
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def refs_for(ops, refs, seed, pass_index, op_index):
    """Reference summaries that apply to one op, by item slot."""
    if refs is None:
        return None
    seeded_too = seed == DEFAULT_SEED and pass_index == 0 and op_index == 0
    return {s: refs[s] for s, item in enumerate(ops[op_index]) if item.fixed or seeded_too}


def run_ops(W, ops, budget=math.inf, on_op=None):
    """Time the ops of a pass in order until ``budget`` seconds are spent.

    Returns [(seconds, outputs, error)], one entry per op run.
    """
    results, spent = [], 0.0
    for b, items in enumerate(ops):
        if spent >= budget:
            break
        if on_op is not None:
            on_op(b)
        t = time.perf_counter()
        try:
            out, err = W.run_op(items), None
        except Exception:  # an op that raises counts as failed; the run goes on
            out, err = None, traceback.format_exc(limit=3)
        results.append((time.perf_counter() - t, out, err))
        spent += results[-1][0]
    return results


class Tally:
    """Ops attempted and failed, with the first few problems for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.run_problems = []  # not tied to one op, e.g. counts that vary

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:3]


def check_pass(checker, ops, results, refs, seed, pass_index, tally):
    for b, (_, out, err) in enumerate(results):
        if err is not None:
            tally.add([f"op {b} raised: {err}"])
            continue
        want = refs_for(ops, refs, seed, pass_index, b)
        if refs is None:
            problems = ["no stored reference for this workload"]
        else:
            _, problems = checker.check_op(ops[b], out, want)
        tally.add(problems)


def setup(W, workload, seed, outdir):
    """Import (already done), input generation and one warm-up call per layer."""
    checker = W.Checker()
    ops = W.make_pass(workload, seed, 0, outdir)
    W.warm_up(outdir)
    return checker, ops


def setup_samples(args, own):
    """This process's set-up time plus that of fresh processes doing the same."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def measure(W, args, ops, checker, refs, outdir, tally):
    """Op times over ``--seconds`` of op time; the first pass always completes."""
    op_times = []
    timed, p = 0.0, 0
    while p == 0 or timed < args.seconds:
        if p > 0:
            ops = W.make_pass(args.workload, args.seed, p, outdir)
        results = run_ops(W, ops, args.seconds - timed if p > 0 else math.inf)
        check_pass(checker, ops, results, refs, args.seed, p, tally)
        op_times += [t for t, _, err in results if err is None]
        timed += sum(t for t, _, _ in results)
        p += 1
    return op_times


def traced(W, T, args, ops, checker, refs, outdir, tally):
    tracer = T.Tracer()
    plain, traced_times, reps = [], [], []
    timed = 0.0
    # stop before a rep that would overrun --seconds, after the minimum
    while len(reps) < MIN_TRACE_REPS or timed + plain[-1] + traced_times[-1] <= args.seconds:
        results = run_ops(W, ops)
        check_pass(checker, ops, results, refs, args.seed, 0, tally)
        plain.append(sum(t for t, _, _ in results))
        tracer.spans = []
        with tracer.installed():
            tracer.trace_id = 0
            with tracer.span("bench.warm_up"):
                W.warm_up(outdir)

            def start_op(b):
                tracer.trace_id = b + 1

            t_results = run_ops(W, ops, on_op=start_op)
        check_pass(checker, ops, t_results, refs, args.seed, 0, tally)
        traced_times.append(sum(t for t, _, _ in t_results))
        reps.append(T.layer_metrics(tracer.spans, tracer.missing))
        timed += plain[-1] + traced_times[-1]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.__dict__) + "\n")
    return plain, traced_times, reps, spans_path


def layer_results(T, reps, plain, traced_times, tally):
    metrics, lines = {}, []
    for name, unit, _span, _q in T.LAYER_METRICS:
        values = [r[name] for r in reps]
        if values[0] is None:
            metrics[name] = {"value": None, "unit": unit, "missing": True}
            lines.append(f"  {name:42s} missing (function not found)")
            continue
        if unit == "s":
            value = statistics.median(values)
            note = f"median of {len(values)} traced reps"
        else:
            value = values[0]
            note = "count, per rep"
            if any(v != value for v in values):
                tally.run_problems.append(f"count {name} differs between reps: {values}")
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:42s} {value:<14.6g} {unit:10s} ({note})")
    overhead = statistics.median(traced_times) / statistics.median(plain)
    metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    lines.append(
        f"  {'trace_overhead':42s} {overhead:<14.6g} {'ratio':10s} "
        f"(median traced / untraced pass, {len(plain)} pairs)"
    )
    return metrics, lines


def run_workload(args):
    W, T = load_program()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=tmp_root) as outdir:
        checker, ops = setup(W, args.workload, args.seed, outdir)
        own_setup = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        facts = machine_facts()
        refs = load_references(args.workload)
        tally = Tally()
        print("machine: " + json.dumps(facts, sort_keys=True))
        header = f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per pass, {args.seconds:g} s"
        if args.trace:
            plain, traced_times, reps, spans_path = traced(
                W, T, args, ops, checker, refs, outdir, tally
            )
            metrics, lines = layer_results(T, reps, plain, traced_times, tally)
            print(f"{header}, traced run: {len(reps)} reps of warm-up + one pass")
            print(f"  spans of the last rep: {spans_path.relative_to(ROOT)}")
        else:
            setups = setup_samples(args, own_setup)
            op_times = measure(W, args, ops, checker, refs, outdir, tally)
            if not op_times:
                sys.exit(f"benchmark: every op raised; first problem: {tally.problems[0]}")
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {
                "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
                "wall_s": (
                    len(ops) * statistics.fmean(op_times),
                    f"one pass of {len(ops)} ops, from the mean of {len(op_times)} ops",
                ),
                "op_p50_ms": (1e3 * statistics.median(op_times), f"{len(op_times)} ops"),
                "op_p90_ms": (1e3 * quantile(op_times, 90), f"{len(op_times)} ops"),
                "peak_rss_mb": (rss_mb, "ru_maxrss"),
            }
            metrics = {k: {"value": values[k][0], "unit": u} for k, u in END_TO_END}
            lines = [
                f"  {k:14s} {values[k][0]:<12.6g} {u:4s} ({values[k][1]})"
                for k, u in END_TO_END + PRINTED_ONLY
            ]
            print(header)
        lines.append(
            f"  {'fail_frac':14s} {tally.failed / max(1, tally.attempted):<12.6g} "
            f"({tally.failed} of {tally.attempted} ops failed a check or raised)"
        )
        print("\n".join(lines))
        for problem in tally.run_problems + tally.problems[:10]:
            print(f"  problem: {problem}")
    result = {
        "correct": tally.failed == 0 and not tally.run_problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process; prints their lines and a summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"benchmark: workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def write_reference():
    """Store the default-seed summaries of the first op of every workload."""
    W, _ = load_program()
    refs = {}
    with tempfile.TemporaryDirectory(prefix="reference-", dir=ROOT / ".bench_tmp") as outdir:
        for workload in WORKLOADS:
            ops = W.make_pass(workload, DEFAULT_SEED, 0, outdir)
            summaries, problems = W.Checker().check_op(ops[0], W.run_op(ops[0]))
            if problems:
                sys.exit(f"benchmark: {workload} fails its invariants: {problems[:3]}")
            refs[workload] = summaries
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        (ROOT / ".bench_tmp").mkdir(exist_ok=True)
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
