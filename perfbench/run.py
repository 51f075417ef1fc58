#!/usr/bin/env python3
"""Builds and runs Neptune's end-to-end client/server benchmark.

    python3 perfbench/run.py --workload browse|history|annotate \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (the repository's library sources, the unmodified
neptune_server and the load generator) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild only what changed.
Build output goes to stderr; the load generator's last line on stdout
is the JSON result. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must end well inside three minutes
PR_SET_PDEATHSIG = 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not (os.path.isfile(os.path.join(ROOT, "src", "ham", "ham.h")) and
            os.path.isfile(os.path.join(ROOT, "examples", "neptune_server.cpp"))):
        sys.stderr.write("perfbench: no Neptune sources next to perfbench/\n")
        return False
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
        configure = ["cmake", "-S", HERE, "-B", bdir, "-G", generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", bdir, "-j", jobs, "--target",
               "perfbench_load", "neptune_server", "perfbench_selftest"]
    started = time.time()
    if subprocess.call(command, stdout=sys.stderr) != 0:
        return False
    flush_new_files(bdir, started)
    return True


def flush_new_files(bdir, since):
    """Writes the files the build just made to disk. Otherwise the
    first runs after a build, whose commits wait for fsync, queue
    behind the build's dirty pages: the first annotate run after a
    fresh build read 2.4k ops/s against about 5k."""
    for dirpath, dirnames, filenames in os.walk(bdir):
        if dirpath == bdir and "work" in dirnames:
            dirnames.remove("work")
        for name in filenames:
            path = os.path.join(dirpath, name)
            try:
                if os.stat(path).st_mtime < since:
                    continue
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            except OSError:
                pass


def die_with_parent():
    # The load generator gets SIGTERM if this script dies, and kills
    # its server in turn.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def run_load(bdir, workload, seed, seconds, trace, rounds=0, capture=False):
    """Runs the load generator; returns (exit code, stdout or None)."""
    work = os.path.join(bdir, "work")
    command = [os.path.join(bdir, "perfbench_load"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--server", os.path.join(bdir, "neptune_server"),
               "--work-dir", work]
    if rounds:
        command += ["--rounds", str(rounds)]
    child = subprocess.Popen(command, preexec_fn=die_with_parent,
                             stdout=subprocess.PIPE if capture else None)
    received = []

    def forward(signum, _frame):
        # The load generator stops its server and exits; the wait below
        # then returns.
        received.append(signum)
        child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, forward)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.terminate()
        child.wait()
        sys.stderr.write("perfbench: run did not finish in time\n")
        return 1, None
    finally:
        # The run's data directory, whatever way the run ended (the
        # load generator removes it itself unless a signal stopped it).
        shutil.rmtree(os.path.join(work, "%s-%d" % (workload, child.pid)),
                      ignore_errors=True)
    if received:
        return 128 + received[0], None
    return child.returncode, out.decode() if capture else None


def servers_left(bdir):
    """Pids of neptune_server processes started from this build."""
    binary = os.path.join(bdir, "neptune_server")
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                argv0 = f.read().split(b"\0")[0].decode(errors="replace")
        except OSError:
            continue
        if argv0 == binary:
            pids.append(int(pid))
    return pids


def self_test(bdir):
    """Every check rejects a wrong expectation; every workload runs a
    few rounds with its checks passing in both modes and prints exactly
    the metrics BENCHMARK.json lists; an interrupted run leaves no
    server behind."""
    ok = subprocess.call([os.path.join(bdir, "perfbench_selftest")]) == 0
    spec = None
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
    workloads = ([w["name"] for w in spec["workloads"]] if spec
                 else ["browse", "history", "annotate"])
    for workload in workloads:
        for trace in (0, 1):
            code, out = run_load(bdir, workload, 7, 1, trace, rounds=3,
                                 capture=True)
            result = json.loads(out.strip().splitlines()[-1]) if code == 0 else {}
            good = (code == 0 and result.get("correct") is True and
                    result.get("failed") == 0 and result.get("attempted", 0) > 0)
            if good and spec:
                listed = [m["name"] for m in
                          spec["per_layer" if trace else "end_to_end"]]
                good = sorted(result["metrics"]) == sorted(listed)
            print("short run %-9s trace=%d %s" % (workload, trace,
                                                  "ok" if good else "FAILED"))
            ok = ok and good
    left = servers_left(bdir)
    print("no server left after the short runs: %s" % ("ok" if not left else left))
    ok = ok and not left
    # Interrupt a run while it measures; it must exit without a result
    # and take its server down.
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               workloads[0], "--seed", "1", "--seconds", "30", "--trace", "0"]
    child = subprocess.Popen(command, stdout=subprocess.PIPE)
    time.sleep(4)
    child.send_signal(signal.SIGINT)
    out, _ = child.communicate(timeout=60)
    left = servers_left(bdir)
    work = os.path.join(bdir, "work")
    data_left = [d for d in os.listdir(work)
                 if os.path.isdir(os.path.join(work, d))]
    good = (child.returncode != 0 and not out.strip() and not left and
            not data_left)
    print("interrupted run stops cleanly: %s" % ("ok" if good else "FAILED"))
    return ok and good


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    bdir = build_dir()
    if not build(bdir):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    if args.self_test:
        return 0 if self_test(bdir) else 1
    code, _ = run_load(bdir, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
