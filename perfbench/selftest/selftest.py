#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest/selftest.py [--seconds S]

For every workload in BENCHMARK.json:
  * an untraced and a traced run, each briefly, must exit 0 with
    correct=true and print every end-to-end (resp. per-layer) metric of
    BENCHMARK.json under its name, with its unit and a numeric value;
  * a run with --corrupt-expected (every known answer perturbed) must exit
    non-zero and report correct=false.
Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload, seconds, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_metrics(result, wanted):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing metric %s" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("%s: unit %r, expected %r" % (m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)):
            problems.append("%s: value %r is not a number" % (m["name"], got.get("value")))
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append("unlisted metrics %s" % sorted(extra))
    return problems


def main():
    seconds = 1
    if "--seconds" in sys.argv:
        seconds = float(sys.argv[sys.argv.index("--seconds") + 1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result = run(name, seconds, trace)
            label = "%s trace=%d" % (name, trace)
            if code != 0 or result is None or result.get("correct") is not True:
                failures.append("%s: exit %d, result %s" % (label, code, result))
                continue
            failures += ["%s: %s" % (label, p) for p in check_metrics(result, wanted)]
        code, result = run(name, seconds, 0, ["--corrupt-expected"])
        if code == 0 or (result is not None and result.get("correct") is not False):
            failures.append("%s: a corrupted expected answer went unnoticed (exit %d)"
                            % (name, code))
        print("%-16s %s" % (name, "checked"), flush=True)
    for f in failures:
        print("FAIL: %s" % f)
    print("selftest: %s" % ("ok" if not failures else "%d failure(s)" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
