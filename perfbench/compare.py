#!/usr/bin/env python3
"""Compare two sets of benchmark runs made on the same host.

    python3 perfbench/compare.py BASE.log [BASE.log ...] --vs CHANGE.log [...]

Each log is the saved stdout of one or more `run.py` invocations; the
`perfbench_record` lines carry the host fingerprint and the metrics.
Refuses (exit 2) when the two sets do not share one host fingerprint
(CPU model, logical cores, compiler, build type, flags): numbers from
different hosts or builds are never compared.  For every workload and
metric it prints each side's median and quartiles and a verdict against
the bound in BENCHMARK.json:
  worse       the change's median is worse by more than the bound
  unresolved  the base's own spread (quartile distance / median) exceeds
              the bound, so the data cannot tell
  better      the median is better by more than the base's spread and
              the two sides' quartile ranges do not overlap
  same        otherwise
Exits 1 when any metric is worse, else 0.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line.startswith('{"perfbench_record"'):
                    records.append(json.loads(line)["perfbench_record"])
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    if "--vs" not in argv:
        sys.stderr.write(__doc__)
        return 2
    split = argv.index("--vs")
    base, change = load(argv[:split]), load(argv[split + 1:])
    if not base or not change:
        sys.stderr.write("compare: no perfbench_record lines on one side\n")
        return 2
    hosts = {r["host"]["host_id"] for r in base + change}
    if len(hosts) != 1:
        sys.stderr.write("compare: refusing to compare different host "
                         "fingerprints:\n")
        seen = {}
        for r in base + change:
            seen[r["host"]["host_id"]] = r["host"]
        for host in seen.values():
            sys.stderr.write("  %s\n" % json.dumps(host, sort_keys=True))
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    rules = {m["name"]: m for m in spec["end_to_end"]}
    rules.update({m["name"]: m for m in spec["per_layer"]})

    worse = 0
    keys = sorted({(r["run"]["workload"], r["run"]["trace"]) for r in base})
    for workload, trace in keys:
        sides = []
        for records in (base, change):
            sides.append([r for r in records if r["run"]["workload"] == workload
                          and r["run"]["trace"] == trace and r["correct"]])
        if not sides[1]:
            print("%s: no correct runs of the change" % workload)
            worse += 1
            continue
        for name in sides[0][0]["metrics"]:
            rule = rules.get(name, {})
            b = quartiles([r["metrics"][name]["value"] for r in sides[0]])
            c = quartiles([r["metrics"][name]["value"] for r in sides[1]])
            verdict = ""
            if "bound" in rule and b[1]:
                sign = 1 if rule["better"] == "lower" else -1
                delta = sign * (c[1] - b[1]) / abs(b[1])
                spread = (b[2] - b[0]) / abs(b[1])
                if delta > rule["bound"]:
                    verdict = "worse"
                    worse += 1
                elif spread > rule["bound"]:
                    verdict = "unresolved"
                else:
                    # Quartile ranges on the metric's better side: for
                    # "higher" the change's q1 must clear the base's q3.
                    apart = (c[2] < b[0] if rule["better"] == "lower"
                             else c[0] > b[2])
                    verdict = ("better" if delta < -spread and apart
                               else "same")
            print("%-15s %-28s base %.6g [%.6g, %.6g] n=%d  change %.6g "
                  "[%.6g, %.6g] n=%d  %s" % (workload, name, b[1], b[0], b[2],
                                             len(sides[0]), c[1], c[0], c[2],
                                             len(sides[1]), verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
