#!/usr/bin/env python3
"""Build and run the rtle benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from src/) into $CARGO_TARGET_DIR
(default .bench_build)/perfbench; later calls rebuild incrementally. The
benchmark binary prints human-readable lines and, last, one JSON object;
this script passes them through and exits with the binary's status.
--selftest runs the benchmark's accounting test instead.
"""

import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    # Keep compiler temporaries inside the build tree.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_build_step(cmd, env):
            # A half-written cache would make the next call skip configuring.
            if os.path.exists(cache):
                os.remove(cache)
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_build_step(["cmake", "--build", out, "-j", jobs], env):
        fail("building the benchmark failed")


def run_build_step(cmd, env):
    try:
        res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return res.returncode == 0


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the rtle sources (src/) are missing; run from a full checkout")
    out = build_dir()
    build(out)
    if argv == ["--selftest"]:
        cmd = [os.path.join(out, "perfbench_accounting_test")]
    else:
        cmd = [os.path.join(out, "rtle_perfbench")] + argv + ["--spans-dir", out]
    # Own process group, so a timeout or a signal to this script takes the
    # benchmark and its replica processes down with it.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
