#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the dhpf libraries from src/ plus the measuring program)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, then runs one workload. The last line of standard output is the
result object. Any further arguments (e.g. --corrupt-expected) are passed to
the measuring program unchanged. Exits non-zero, without a result, when the
build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out, env):
    """Configure once, then (re)build; cmake's output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    configured = any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    return True


def arg_value(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    out = build_dir()
    # The shipped defaults: no cache or parallel-pass overrides, no
    # watchdog tuning from the caller's environment. Temporary files (the
    # compiler's among them) stay inside the build tree.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DHPF_") and not k.startswith("ISET_")}
    env["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(out, env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "perfbench")] + args
    cmd += ["--known-answers", os.path.join(HERE, "known_answers.json")]
    if arg_value(args, "--trace", "0") != "0":
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-seed%s.jsonl" % (arg_value(args, "--workload", "unknown"),
                                    arg_value(args, "--seed", "1"))
        cmd += ["--spans-out", os.path.join(spans, name)]
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
