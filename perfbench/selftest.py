#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute after the build).

    python3 perfbench/selftest.py

Run from the repository root.  Checks that:
  * every workload BENCHMARK.json lists prints every metric it names,
    with its unit, in both untraced (end-to-end) and traced (per-layer)
    runs, and passes;
  * a wrong golden digest and a corrupted receive buffer (in fig10's
    real-mode resize rung) each make the run fail (failed > 0,
    error_rate > 0, correct false);
  * each traced run's L0 hold-model rung dispatches exactly the requested
    event count;
  * the traced run's span file passes the repository's trace_validate.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: the build step)

WORKLOADS = ["fig10", "archive_hiload", "fed_checked"]
FAILURES = []


def check(condition, what):
    print("%s  %s" % ("ok  " if condition else "FAIL", what), flush=True)
    if not condition:
        FAILURES.append(what)


def bench(binary, *args):
    """Exit code, result object and full record of one benchmark run."""
    proc = subprocess.run([binary] + list(args), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None
    return (proc.returncode, json.loads(lines[-1]),
            json.loads(lines[-2])["perfbench_record"])


def metric_table(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = run.build_dir()
    run.build(out)
    binary = os.path.join(out, "dmr_perfbench")
    validator = os.path.join(out, "repo", "trace_validate")
    os.makedirs(".bench_build", exist_ok=True)

    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json names the three simulation workloads")
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = metric_table(spec, key)
        for workload in WORKLOADS:
            trace_file = ".bench_build/selftest-%s.json" % workload
            rc, result, record = bench(binary, "--workload", workload,
                                       "--seed", "3", "--seconds", "0.2",
                                       "--trace", trace, "--tiny",
                                       "--trace-out", trace_file)
            label = "%s --trace %s" % (workload, trace)
            check(rc == 0 and result is not None, label + ": exits 0 with a result")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  label + ": result has exactly the four keys")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, label + ": every %s metric printed with its unit" % key)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, label + ": correct, nothing failed")
            if trace == "1" and workload == "fig10":
                check(result["metrics"]["redist.mb_per_s"]["value"] > 0,
                      label + ": the real-mode resize rung ran")
            if trace == "1":
                run_detail = record["run"]
                check(run_detail["hold_dispatched"] == run_detail["hold_requested"]
                      and int(run_detail["hold_requested"]) > 0,
                      label + ": hold model dispatched exactly %s events"
                      % run_detail["hold_requested"])
                proc = subprocess.run([validator, trace_file], capture_output=True,
                                      text=True)
                check(proc.returncode == 0, label + ": trace_validate accepts the spans")

    rc, result, _ = bench(binary, "--workload", "fig10", "--seed", "3",
                          "--seconds", "0.2", "--trace", "1", "--tiny", "--inject",
                          "bad-golden", "--trace-out",
                          ".bench_build/selftest-inject.json")
    check(result is not None and not result["correct"] and result["failed"] > 0
          and result["metrics"]["error_rate"]["value"] > 0,
          "a wrong golden digest gives error_rate > 0")
    rc, result, _ = bench(binary, "--workload", "fig10", "--seed", "3",
                          "--seconds", "0.2", "--trace", "1", "--tiny", "--inject",
                          "corrupt-recv", "--trace-out",
                          ".bench_build/selftest-inject.json")
    check(result is not None and not result["correct"] and result["failed"] == 1
          and result["metrics"]["error_rate"]["value"] > 0,
          "a corrupted receive buffer gives error_rate > 0")

    rc, result, _ = bench(binary, "--workload", "nonexistent", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
    check(rc != 0 and result is None, "an unknown workload exits non-zero")

    print("selftest: %s" % ("PASS" if not FAILURES else
                            "%d check(s) failed" % len(FAILURES)))
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
