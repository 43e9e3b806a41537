#!/usr/bin/env python3
"""Front end of the reproduction benchmark (see README.md).

Builds the benchmark binary from the checkout's sources, then runs it:

  python3 reprobench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 reprobench/run.py --steadiness 10 --workload W
  python3 reprobench/run.py --report [--seed N] [--seconds S]
  python3 reprobench/run.py --self-test
  python3 reprobench/run.py --generate          # rewrite expected/*.tsv

The result of a plain run is the last line of standard output.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"
BUILD = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "reprobench"
BINARY = BUILD / "reprobench"


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then build the benchmark binary; output to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "reprobench"])
    for cmd in steps:
        code = subprocess.run(cmd, stdout=sys.stderr).returncode
        if code != 0:
            sys.exit(f"reprobench: build step failed ({code}): {' '.join(cmd)}")


def source_rev():
    """The git revision, or a digest of the sources in a plain checkout."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def bench_cmd(workload, seed, seconds, trace, expected=EXPECTED):
    return [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--expected", str(expected), "--rev", source_rev()]


def run_captured(workload, seed, seconds, trace, expected=EXPECTED, env=None):
    """Run the benchmark binary; return (exit code, info line, result) parsed."""
    out = subprocess.run(bench_cmd(workload, seed, seconds, trace, expected),
                         capture_output=True, text=True, env=env)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        return out.returncode, None, None
    return out.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def steadiness(workload, runs, seconds):
    """Run one workload with `runs` seeds; print each end-to-end metric's
    median, quartiles and spread against its bound."""
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(1, runs + 1):
        code, info, result = run_captured(workload, seed, seconds, 0)
        if result is None:
            sys.exit(f"reprobench: run with seed {seed} failed ({code})")
        print(f"seed {seed}: tier={info['tier']} passes={info['passes']} "
              f"correct={result['correct']} failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
    print(f"\n{workload}: {runs} runs of {seconds} s")
    print(f"{'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}  verdict")
    ok = True
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        if name == "setup_s":
            verdict = "exempt"
        elif spread <= bounds[name] / 3:
            verdict = "steady"
        elif spread <= bounds[name]:
            verdict = "within bound"
        else:
            verdict, ok = "TOO WIDE", False
        print(f"{name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.4f}{bounds[name]:>7}  {verdict}")
    return 0 if ok else 1


def report(seed, seconds):
    """Every end-to-end and per-layer metric of every workload."""
    failed = 0
    for w in spec()["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, info, result = run_captured(name, seed, seconds, trace)
            if result is None:
                sys.exit(f"reprobench: {name} --trace {trace} failed ({code})")
            failed += result["failed"]
            print(f"\n== {name} (--trace {trace}) tier={info['tier']} "
                  f"passes={info['passes']} cells/pass={info['cells_per_pass']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:<30}{m['value']:>18.6g} {m['unit']}")
    return 0 if failed == 0 else 1


def self_times(trace_path):
    """Self time of every span of a written trace, in microseconds."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    child = [0.0] * len(events)
    for e in events:
        if e["args"]["parent"] >= 0:
            child[e["args"]["parent"]] += e["dur"]
    return [e["dur"] - c for e, c in zip(events, child)]


def self_test():
    """The benchmark checks itself: a perturbed expected observable must
    fail cells, an untouched table must not, traces must parse."""
    problems = []
    bench = spec()

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            problems.append(what)

    _, _, clean = run_captured("spec-grid", 1, 1, 0)
    expect(clean is not None and clean["failed"] == 0 and clean["correct"],
           "untouched expected table: cells_failed == 0")
    expect(clean is not None and set(clean["metrics"]) ==
           {m["name"] for m in bench["end_to_end"]},
           "untraced run prints exactly the end_to_end metrics")

    perturbed = BUILD / "selftest-expected"
    shutil.rmtree(perturbed, ignore_errors=True)
    shutil.copytree(EXPECTED, perturbed)
    table = perturbed / "spec-grid.tsv"
    rows = table.read_text().splitlines()
    fields = rows[0].split("\t")
    fields[3] = str(int(fields[3]) + 1)  # the first cell's instret
    rows[0] = "\t".join(fields)
    table.write_text("\n".join(rows) + "\n")
    _, _, bad = run_captured("spec-grid", 1, 1, 0, expected=perturbed)
    expect(bad is not None and bad["failed"] > 0 and not bad["correct"],
           "one perturbed observable: cells_failed > 0")

    _, info, traced = run_captured("juliet-sweep", 1, 1, 1)
    expect(traced is not None and set(traced["metrics"]) ==
           {m["name"] for m in bench["per_layer"]},
           "traced run prints exactly the per_layer metrics")
    if info is not None:
        selfs = self_times(info["trace_file"])
        expect(len(selfs) > 0 and min(selfs) >= -0.01,
               f"trace parses, {len(selfs)} spans, self times >= 0")
        expect(traced["metrics"]["trace.span_coverage"]["value"] >= 95.0,
               "layer spans cover >= 95 % of the pass")

    _, _, fault = run_captured("fault-rerun", 1, 1, 1)
    m = fault["metrics"] if fault is not None else {}
    expect(fault is not None and fault["failed"] == 0 and
           m["sim.dbt_fallback_runs"]["value"] == m["cells"]["value"] and
           m["fault.protected_silent"]["value"] == 0,
           "fault-rerun: every faulted run on the interpreter, none silent")

    env = dict(os.environ, HWST_TIER="dbt")
    code, _, refused = run_captured("spec-grid", 1, 1, 0, env=env)
    expect(code != 0 and refused is None, "refuses to run with HWST_TIER set")

    print("self-test: " + ("passed" if not problems else
                           f"{len(problems)} check(s) failed"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--generate", action="store_true")
    args = ap.parse_args()
    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    build()
    if args.self_test:
        return self_test()
    if args.report:
        return report(args.seed, seconds)
    if args.generate:
        for name in names:
            code = subprocess.run([str(BINARY), "--workload", name, "--generate",
                                   str(EXPECTED / f"{name}.tsv")]).returncode
            if code != 0:
                return code
        return 0
    if args.workload is None:
        sys.exit("reprobench: --workload is required")
    if args.steadiness:
        return steadiness(args.workload, args.steadiness, seconds)
    sys.stdout.flush()
    return subprocess.run(bench_cmd(args.workload, args.seed, seconds,
                                     args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
