#!/usr/bin/env python3
"""Run one workload of the Potluck daemon benchmark.

Builds potluckd and the load generator from the enclosing source tree
(into .bench_build/ at the tree's root), runs the generator, which
spawns potluckd as its child, and passes its report through. The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.

    python3 perfbench/run.py --workload recog --seed 1 --seconds 10 --trace 0

Run it from the root of the source tree. The run's socket, store and
trace dump live in a fresh directory under .bench_build/runs/, which is
removed however the run ends; the daemon and the generator are stopped
and reaped on every exit path, SIGINT and SIGTERM included. A run
refuses to start while a daemon still serves a socket in that directory.
"""

import argparse
import ctypes
import glob
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = ".bench_build"  # relative to ROOT; the socket path stays short
BUILD = os.path.join(BUILD_ROOT, "perfbench")
GEN = os.path.join(BUILD, "perfbench_gen")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
DAEMON = os.path.join(BUILD, "potluck", "tools", "potluckd")
WORKLOADS = ("recog", "hot_small", "churn_tiered")
# A run must end within 180 s; the slowest, a traced recog run, takes
# about 100 s on a 4-vCPU host.
GEN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_env():
    tmp = os.path.join(ROOT, BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure (once) and build potluckd and the generator."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no Potluck source tree around %s; run from a full checkout"
             % HERE)
    os.makedirs(os.path.join(ROOT, BUILD), exist_ok=True)
    env = build_env()
    log_path = os.path.join(ROOT, BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "potluckd", "perfbench_gen", "perfbench_selftest"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, cwd=ROOT, env=env, stdout=log,
                               stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(step))


def stop_group(proc):
    """SIGTERM the generator's process group (it and its daemon), then
    SIGKILL what is left, and reap everything."""
    for sig, grace in ((signal.SIGTERM, 15.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            reap_orphans()
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)
    reap_orphans()


def reap_orphans():
    """Reap children, including daemons orphaned by a killed generator
    (this process is their subreaper)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def served(path):
    """True when something accepts connections on the Unix socket."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        try:
            s.connect(os.path.relpath(path))  # keeps sun_path short
            return True
        except OSError:
            return False


def run_generator(args, extra=(), stdout=None):
    """Run perfbench_gen, its stdout going to `stdout` (default: ours);
    returns its exit code. Cleans up the run directory and every process
    however the run ends."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    run_dir = os.path.join(BUILD_ROOT, "runs", str(os.getpid()))
    # What a killed run with this pid left behind is removed, unless a
    # daemon still serves one of its sockets.
    for sock in glob.glob(os.path.join(ROOT, run_dir, "*", "d.sock")):
        if served(sock):
            fail("socket %s is already being served" % sock)
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    cmd = [GEN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", DAEMON, "--run-dir", run_dir] + list(extra)
    if args.trace:
        spans = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(os.path.join(ROOT, spans), exist_ok=True)
        cmd += ["--spans", os.path.join(spans, args.workload + ".tsv")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=build_env(), stdout=stdout,
                            start_new_session=True)

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)  # the finally below cleans up

    previous = {s: signal.signal(s, on_signal)
                for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        code = proc.wait(timeout=GEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: generator exceeded %d s" % GEN_TIMEOUT_S,
              file=sys.stderr)
        code = 1
    finally:
        stop_group(proc)
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
        for s, handler in previous.items():
            signal.signal(s, handler)
    return code


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main():
    args = parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    sys.exit(run_generator(args))


if __name__ == "__main__":
    main()
