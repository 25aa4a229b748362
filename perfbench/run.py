"""Offline benchmark of wenum: enumerate, stabilizer and certify workloads.

    python3 perfbench/run.py --workload enumerate|stabilizer|certify \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --known-defects

Run from the root of a checkout; the program is imported from ./src.
Each workload runs in one process on one thread (the parallel
enumeration in the traced run excepted), calls one verb of wenum's
public API per target, and checks every answer against the oracles in
oracle.py.  A wrong answer, an exception or an undecided verdict where a
decision is due is a failed op; failures are listed by target and the
run goes on.

--trace 0 times every target once and then round-robin until the
timed calls have taken S seconds, and prints the end-to-end metrics of
BENCHMARK.json (times are per-target medians).  --trace 1 times every
target once with the public functions of each layer rebound to timing
wrappers (trace.py), and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --workload all runs each workload
untraced and then traced, in child processes, and prints every metric.
Result files go to perfbench/results/.  --known-defects calls the verb
once on each target where the program is known to answer wrongly
(inputs.KNOWN_DEFECTS), checks the answers and exits with 1 while any
is still wrong; those targets are in no workload.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("enumerate", "stabilizer", "certify")
SETUP_RUNS = 3  # fresh processes whose set-up is timed; setup_s is the median
MAX_CALLS = 100  # per target in one run


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_wenum():
    """The program's modules, imported from ROOT/src and nowhere else."""
    src = ROOT / "src"
    if not (src / "wenum" / "__init__.py").is_file():
        fail(f"no program at {src / 'wenum'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import wenum.catalog
    import wenum.codes
    import wenum.fields
    import wenum.stabilizer

    if Path(wenum.__file__).resolve().parent != (src / "wenum").resolve():
        fail(f"imported wenum from {wenum.__file__}, not from {src}")
    return types.SimpleNamespace(
        codes=wenum.codes, catalog=wenum.catalog,
        fields=wenum.fields, stabilizer=wenum.stabilizer,
    )


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)
    except OSError as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def environment(args):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import mpmath
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": commit(),
    }


def commit():
    """HEAD of the checkout's git repository, or "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --- timing ---------------------------------------------------------------------


def time_call(target):
    """One timed call; the summary is made after the clock stops."""
    start = time.perf_counter()
    try:
        result = target.call()
    except Exception as exc:  # a failed op, reported by target
        return time.perf_counter() - start, exc
    elapsed = time.perf_counter() - start
    try:
        return elapsed, target.summarize(result)
    except Exception as exc:
        return elapsed, exc


def time_targets(targets, seconds, tracer=None):
    """[(target, [seconds], [summary or exception])].

    Every target is called once, in order; then the targets are called
    again round-robin until all calls together have taken `seconds`.  A
    target whose first call is longer than the time left is not called
    again.  Round-robin spreads each target's samples over the run
    rather than one short window.
    """
    out = [(target, [], []) for target in targets]

    def call(index):
        target, times, results = out[index]
        if tracer is not None:
            tracer.target = index
        elapsed, summary = time_call(target)
        times.append(elapsed)
        results.append(summary)
        return elapsed

    left = seconds - sum(call(index) for index in range(len(out)))
    while left > 0:
        due = [i for i, (_, ts, _) in enumerate(out) if ts[0] <= left and len(ts) < MAX_CALLS]
        if not due:
            break
        for index in due:
            if out[index][1][0] <= left:
                left -= call(index)
    return out


def check_all(passes):
    """{target name: [reason, ...]} over every call of every pass."""
    failures = {}
    for timed in passes:
        firsts = {t.name: rs[0] for t, _, rs in timed if not isinstance(rs[0], Exception)}
        for target, _, results in timed:
            for summary in results:
                if isinstance(summary, Exception):
                    reason = f"raised {type(summary).__name__}: {summary}"
                else:
                    try:
                        reason = target.check(summary, firsts)
                    except Exception as exc:
                        reason = f"check raised {type(exc).__name__}: {exc}"
                if reason:
                    failures.setdefault(target.name, []).append(reason)
    return failures


def checker_selftest(workload, targets):
    """The checker must accept a right answer and flag a wrong one: a
    perturbed enumerator (exact and structural check), a wrong group
    order, a group order that differs from the MacWilliams partner's,
    a trivial-group certificate for rm2_1_4 and an undecided verdict
    where a certificate is due.  Returns the problems found."""
    import inputs
    import oracle

    checks = {t.name: t.check for t in targets}
    cases = []  # (label, check, right, wrong, firsts for the wrong answer)
    if workload == "enumerate":
        q, right = oracle.load_reference()["rm4_3_2"]
        wrong = list(right)
        i = next(i for i in range(1, len(wrong)) if wrong[i])
        wrong[i], wrong[i - 1] = wrong[i] - 1, wrong[i - 1] + 1  # one word changes weight
        cases.append(("rm4_3_2", checks["rm4_3_2"], right, tuple(wrong), {}))
        cases.append(("structural", inputs.check_code_enumerator(q, 10), right, tuple(wrong), {}))
    elif workload == "stabilizer":
        cases.append(("rm2_1_4", checks["rm2_1_4"], ("FiniteGroup", 256), ("FiniteGroup", 240), {}))
        q, n, k = inputs.STAB_RANDOM[0]
        name = f"rand_q{q}_{n}_{k}"
        cases.append((name, checks[name], ("FiniteGroup", n), ("FiniteGroup", n),
                      {name + "_dual": ("FiniteGroup", 2 * n)}))
    else:
        cases.append(("rm2_1_4", checks["rm2_1_4"], "Inconclusive", "TrivialCertified", {}))
        cases.append(("prm5_3_2", checks["prm5_3_2"], "TrivialCertified", "Inconclusive", {}))
    problems = []
    for label, check, right, wrong, firsts in cases:
        if check(right, {}) is not None:
            problems.append(f"{label}: right answer {right!r} flagged")
        if check(wrong, firsts) is None:
            problems.append(f"{label}: wrong answer {wrong!r} not flagged")
    return problems


def measure_setup(args):
    """Set-up times of SETUP_RUNS fresh processes: from the spawn to the
    point where the first verb call would start."""
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode:
            fail(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


# --- one workload -----------------------------------------------------------------


def run_workload(args, spec):
    import inputs
    import trace

    wenum = load_wenum()
    env = environment(args)
    setup_samples = [] if args.trace else measure_setup(args)
    tracer = trace.Tracer()
    if args.trace:
        with tracer.patch():  # set-up spans (target -1)
            targets = inputs.make_targets(args.workload, args.seed, wenum)
    else:
        targets = inputs.make_targets(args.workload, args.seed, wenum)
    problems = checker_selftest(args.workload, targets)
    if problems:
        fail("checker self-test failed: " + "; ".join(problems))

    values = {}
    passes = []
    mismatches = []
    if not args.trace:
        timed = time_targets(targets, args.seconds)
        passes.append(timed)
        values["wall_s"] = sum(statistics.median(ts) for _, ts, _ in timed)
        values["setup_s"] = statistics.median(setup_samples)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        section = "end_to_end"
    else:
        parallel_s = 0.0
        if args.workload == "enumerate":
            par = time_targets([inputs.parallel_target(wenum, env["nproc"])], 0)
            passes.append(par)
            parallel_s = par[0][1][0]
        with tracer.patch():
            traced = time_targets(targets, 0, tracer)
        passes.append(traced)
        traced_wall = sum(ts[0] for _, ts, _ in traced)
        values.update(trace.layer_metrics(tracer.spans, traced_wall, trace.span_cost()))
        values["codes.parallel_wall_s"] = parallel_s
        for workload in WORKLOADS:
            for name in inputs.target_names(workload):
                values[f"target.{workload}.{name}_s"] = 0.0
        for target, ts, _ in traced:
            values[f"target.{args.workload}.{target.name}_s"] = ts[0]
        values["target_geomean_s"] = math.exp(
            sum(math.log(ts[0]) for _, ts, _ in traced) / len(traced))
        mismatches = trace_consistency(args.workload, targets, traced, tracer, values)
        section = "per_layer"

    failures = check_all(passes)
    attempted = sum(len(ts) for timed in passes for _, ts, _ in timed)
    failed = sum(len(r) for r in failures.values())
    if args.trace:
        values["fail_ratio"] = failed / attempted

    listed = {m["name"]: m["unit"] for m in spec[section]}
    if set(listed) != set(values):
        fail(f"metrics disagree with BENCHMARK.json {section}: "
             f"{sorted(set(listed) ^ set(values))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in listed.items()}

    labels = ["timed"] if not args.trace else (
        (["parallel"] if args.workload == "enumerate" else []) + ["traced"])
    report(env, zip(labels, passes), failures, mismatches, metrics)
    write_results(args, env, passes, failures, metrics, tracer.spans if args.trace else None)
    return {
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def trace_consistency(workload, targets, traced, tracer, values):
    """Counts taken from the spans must match what the calls reported."""
    problems = []
    roots = [sp for sp in tracer.spans if sp[4] >= 0 and sp[3] < 0]
    if len(roots) != len(targets):
        problems.append(f"{len(roots)} top-level spans for {len(targets)} calls")
    if workload == "enumerate":
        words = sum(t.words for t in targets)
        if values["codes.codewords"] != words:
            problems.append(f"codes.codewords {values['codes.codewords']} != {words}")
    if workload == "stabilizer":
        elements = sum(rs[0][1] for _, _, rs in traced if isinstance(rs[0], tuple))
        if values["stabilizer.elements"] != elements:
            problems.append(f"stabilizer.elements {values['stabilizer.elements']} "
                            f"!= sum of report sizes {elements}")
    if workload == "certify" and values["stabilizer.certify_attempts"] < len(targets):
        problems.append("fewer root solves than certify calls")
    return problems


def report(env, passes, failures, problems, metrics):
    print("# environment " + json.dumps(env))
    for label, timed in passes:
        print(f"# {label + ' pass':<22} {'calls':>5} {'median_s':>10}  answer")
        for target, ts, _ in timed:
            status = "ok" if target.name not in failures else "FAILED"
            print(f"# {target.name:<22} {len(ts):>5} {statistics.median(ts):>10.4f}  {status}")
    for name, reasons in failures.items():
        print(f"# failed {name}: {len(reasons)} x {reasons[0]}")
    for problem in problems:
        print(f"# trace mismatch: {problem}")
    for name, m in metrics.items():
        print(f"# {name:<40} {m['value']:>16.6g} {m['unit']}")


def write_results(args, env, passes, failures, metrics, spans):
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "targets": [
            {"name": t.name, "seconds": ts,
             "failures": failures.get(t.name, [])}
            for timed in passes for t, ts, _ in timed
        ],
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with gzip.open(RESULTS / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "target", "info"],
                       "spans": spans}, fh)


def run_known_defects(args):
    import inputs

    targets = inputs.known_defect_targets(load_wenum())
    timed = time_targets(targets, 0)
    failures = check_all([timed])
    report(environment(args), [("known-defects", timed)], failures, [], {})
    return {
        "correct": not failures,
        "attempted": len(timed),
        "failed": sum(len(r) for r in failures.values()),
        "metrics": {},
    }


# --- all workloads -------------------------------------------------------------------


def run_all(args):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace_flag in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace_flag)],
                capture_output=True, text=True, timeout=900, check=False,
            )
            if proc.returncode:
                fail(f"{workload} --trace {trace_flag} failed: {proc.stderr.strip()}")
            lines = proc.stdout.strip().splitlines()
            print(f"## {workload}, trace {trace_flag}")
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = m
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-defects", action="store_true",
                        help="check the targets kept out of the workloads as known defects")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.known_defects:
        result = run_known_defects(args)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if args.setup_only:
        import inputs

        inputs.make_targets(args.workload, args.seed, load_wenum())
        print(time.time())
        return 0
    spec = load_spec()
    result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
