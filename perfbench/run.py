#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spec-warm --seed 1 --seconds 24 --trace 0

The Go program in this directory is built with the daemon's committed profile
(-pgo=cmd/prophetd/default.pgo), since Go applies default.pgo only to a main
package in its own directory, and every build and scratch file stays under
.bench_build in the checkout. Its last output line is the JSON
result; this script checks that it names exactly the metrics BENCHMARK.json
lists for the mode, and exits non-zero on any failure.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    """Run cmd to completion, killing its process group on timeout or when
    this script is told to stop."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %ds" % (cmd[0], timeout))
    return proc.returncode, out


def build():
    for need in ("go.mod", os.path.join("cmd", "prophetd", "default.pgo")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a checkout of the repository: %s is missing" % need)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    pgo = os.path.join(ROOT, "cmd", "prophetd", "default.pgo")
    code, _ = run(["go", "build", "-buildvcs=false", "-pgo=" + pgo, "-o", BINARY, "."],
                  BUILD_TIMEOUT, cwd=HERE, env=env, stdout=sys.stderr)
    if code != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    build()
    code, out = run([BINARY, "-workload", args.workload, "-seed", str(args.seed),
                     "-seconds", str(args.seconds), "-trace", str(args.trace), "-root", ROOT],
                    RUN_TIMEOUT, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail("benchmark exited with %d" % code)
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    want = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))


if __name__ == "__main__":
    main()
