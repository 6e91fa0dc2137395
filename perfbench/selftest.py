"""Self-test of the benchmark: one short run of every workload.

    python3 perfbench/selftest.py        (from the root of a checkout)

Checks that
- run.py emits every metric BENCHMARK.json names, with its unit, in both
  the untraced and the traced mode, and that every operation passes;
- the count metrics of two traced passes in one process are equal;
- a corrupted reference hash in `maps` is a failed operation, not a crash.
Takes about two minutes; exits 1 and names each problem on failure.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
COUNT_UNITS = ("count", "bytes")


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1234", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        return None, "exit code %d: %s" % (out.returncode, out.stderr[-500:])
    return json.loads(out.stdout.strip().splitlines()[-1]), None


def check_emission(spec, workload, problems):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, err = _run(workload, trace)
        where = "%s --trace %d" % (workload, trace)
        if err:
            problems.append("%s: %s" % (where, err))
            continue
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append("%s: result keys %s" % (where, sorted(result)))
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append("%s: %d of %d operations failed"
                            % (where, result["failed"], result["attempted"]))
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append("%s: metrics differ from BENCHMARK.json: %s"
                            % (where, sorted(set(got.items())
                                             ^ set(want.items()))))


def check_counts_repeat(spec, workload, problems):
    import ioxsim
    from tracer import Tracer
    from worker import layer_metrics, run_pass
    from workloads import WORKLOADS

    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] in COUNT_UNITS]
    wl = WORKLOADS[workload](ROOT, 1234)
    tracer = Tracer()
    tracer.install(ioxsim)
    try:
        seen = []
        for i in range(2):
            out_dir = os.path.join(ROOT, ".perfbench_work", "selftest%d" % i)
            _, _, outcomes, info = run_pass(wl, out_dir, tracer)
            failed = [name for name, err in outcomes if err]
            if failed:
                problems.append("%s: failed operations %s" % (workload, failed))
            metrics = layer_metrics([info.pop("_trace") + (info,)], 0.0)
            seen.append({name: metrics[name] for name in counts})
    finally:
        tracer.uninstall()
    if seen[0] != seen[1]:
        problems.append("%s: counts differ between passes: %s"
                        % (workload, {k: (seen[0][k], seen[1][k])
                                      for k in counts
                                      if seen[0][k] != seen[1][k]}))


def check_corrupted_reference(problems):
    from worker import run_pass
    from workloads import Maps

    maps = Maps(ROOT, 1234)
    reference = dict(maps.reference)
    key = sorted(reference)[0]
    reference[key] = "0" * 64
    maps = Maps(ROOT, 1234, reference=reference)
    out_dir = os.path.join(ROOT, ".perfbench_work", "selftest-corrupt")
    try:
        _, _, outcomes, _ = run_pass(maps, out_dir)
    except Exception as exc:  # the point of the test: this must not raise
        problems.append("corrupted reference raised %r" % exc)
        return
    failed = [name for name, err in outcomes if err]
    if failed != [key.split("/")[0]]:
        problems.append("corrupted reference %s: failed operations %s"
                        % (key, failed))


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    os.environ.pop("IOXSIM_SEED", None)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    try:
        for workload in ("maps", "sweep", "checks", "oracle"):
            check_emission(spec, workload, problems)
            with contextlib.redirect_stdout(io.StringIO()):  # CLI file lists
                check_counts_repeat(spec, workload, problems)
            print("%s checked" % workload, flush=True)
        with contextlib.redirect_stdout(io.StringIO()):
            check_corrupted_reference(problems)
    finally:
        shutil.rmtree(os.path.join(ROOT, ".perfbench_work"),
                      ignore_errors=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
