"""ioxsim benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload {maps,sweep,checks,oracle} \
        --seed N --seconds S --trace 0|1

Run it from the root of an ioxsim checkout; ioxsim is imported from the
checkout's ``src``.  The workload runs as a closed loop with one client: a
fresh worker process (worker.py) sets it up, then runs whole passes until
the next one would not fit in S seconds.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
(half the time traced, half untraced, for the tracing overhead).

Standard output ends with an "env" line, a "detail" line (samples and
quartiles) and, last, the result object.  Exit code 2 means the checkout
is unusable and nothing was measured; 1 means the worker failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("maps", "sweep", "checks", "oracle")
MARK = "@@perfbench "
SETUP_SAMPLES = 5       # fresh interpreters timed for setup_s, median kept
DEADLINE_S = 170.0      # the whole run, all processes included


def _worker(root, args, setup_only, deadline):
    """Run worker.py once; returns (setup seconds, result dict).

    The result is None for a set-up-only run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("IOXSIM_SEED", None)  # the seed comes from --seed only
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    setup_s = result = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if line.startswith(MARK + "ready"):
                setup_s = time.perf_counter() - t0
            elif line.startswith(MARK + "result "):
                result = json.loads(line[len(MARK + "result "):])
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None:
        raise RuntimeError("worker exited with code %s" % proc.returncode)
    if result is None and not setup_only:
        raise RuntimeError("worker printed no result")
    return setup_s, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    for need in ("src/ioxsim/__init__.py", "configs", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, need)):
            print("not an ioxsim checkout: %s missing in %s" % (need, root),
                  file=sys.stderr)
            return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    load_start = os.getloadavg()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker(root, args, True, deadline)[0])
        setup_s, result = _worker(root, args, False, deadline)
        setups.append(setup_s)
    except RuntimeError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)

    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
           "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
           "loadavg_start": load_start, "loadavg_end": os.getloadavg()}
    env.update(result["versions"])
    detail = {key: result[key] for key in ("pass_s", "cpu_s", "failures")
              if key in result}
    detail.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  fail_ratio=result["failed"] / result["attempted"])
    detail["setup_s"] = {"samples": setups}
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
