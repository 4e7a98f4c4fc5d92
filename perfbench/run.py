#!/usr/bin/env python3
"""Build and run the Rake benchmark program.

    python3 perfbench/run.py --workload suite_compile|execute_jit
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The program (perfbench/*.cc, linked
against ../src) is configured and built in .bench_build/ first; build
output goes to stderr. The program's last stdout line is the result
object. Scratch files, traces and steadiness records go to .bench_out/.

--self-test runs every workload of BENCHMARK.json, untraced and traced,
at tiny sizes and checks: each exits cleanly with zero failures, every
metric named in BENCHMARK.json is printed with its unit, and the
deterministic counters (per-stage queries, the serve replay's tier
counts, JIT code size, modeled cycles, boundary swizzles saved) agree
between two invocations and between --jobs 1 and --jobs nproc.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build")
OUT = os.path.join(os.getcwd(), ".bench_out")
BINARY = os.path.join(BUILD, "rake_perfbench")


def build():
    jobs = str(os.cpu_count() or 1)
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target", "rake_perfbench"]):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run_binary(args):
    """Run the program; return (exit code, parsed last stdout line or None)."""
    r = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    result = None
    if r.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return r.returncode, result, r.stdout


def counters(workload, seed, trace, out_dir):
    path = os.path.join(out_dir, "steadiness-%s-%d%s.json"
                        % (workload, seed, "-trace" if trace else ""))
    with open(path) as f:
        return json.load(f)["counters"]


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    nproc = os.cpu_count() or 1
    problems = []

    def check(cond, what):
        if not cond:
            problems.append(what)
            print("self-test: FAIL " + what, file=sys.stderr)

    # Untraced runs twice at nproc and once at --jobs 1; traced runs at
    # nproc and at --jobs 1.
    plan = [(0, "a", nproc), (0, "b", nproc), (0, "j1", 1),
            (1, "a", nproc), (1, "j1", 1)]
    for wl in [w["name"] for w in spec["workloads"]]:
        seen = {}
        for trace, tag, jobs in plan:
            names = spec["per_layer"] if trace else spec["end_to_end"]
            out_dir = os.path.join(OUT, "selftest", tag)
            code, res, _ = run_binary(
                ["--workload", wl, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny",
                 "--jobs", str(jobs), "--out-dir", out_dir])
            label = "%s trace=%d %s" % (wl, trace, tag)
            check(code == 0 and res is not None, label + ": exits cleanly")
            if res is None:
                continue
            check(res["failed"] == 0 and res["correct"],
                  label + ": zero failures")
            for m in names:
                got = res["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      label + ": prints " + m["name"] + " in " + m["unit"])
            seen[(trace, tag)] = counters(wl, 7, trace, out_dir)
        for trace, tag in ((0, "b"), (0, "j1"), (1, "j1")):
            if (trace, tag) in seen and (trace, "a") in seen:
                check(seen[(trace, "a")] == seen[(trace, tag)],
                      "%s trace=%d: counters of run %s equal run a"
                      % (wl, trace, tag))
    print("self-test: %s" % ("ok" if not problems else
                             "%d problem(s)" % len(problems)), file=sys.stderr)
    return 0 if not problems else 1


def main():
    argv = sys.argv[1:]
    build()
    if argv == ["--self-test"]:
        sys.exit(self_test())
    code, _, stdout = run_binary(argv)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
