#!/usr/bin/env python3
"""Build and run the doxmeter benchmark from the root of a checkout.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

The Go program is built from source into .bench_build/, with its build
cache there too, so the run writes nothing outside the checkout. Its
standard output passes through; the last line is the JSON result. A
failed build or run exits non-zero without a result.
"""
import os
import signal
import subprocess
import sys

# The benchmark itself (after the build) must end within this many seconds.
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        # The go command keeps its env file and telemetry counters here.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # A process group of its own lets a timeout stop the rep processes too.
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
