"""One workload in one fresh process; started by run.py, not by hand.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N \
        --seconds S --trace 0|1 [--setup-only]

Prints protocol lines prefixed with "@@perfbench ": "ready" once the
workload is set up (run.py times set-up up to that line), then one
"result" line with a JSON object.  Everything else on stdout is the
program's own output and is ignored.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

MARK = "@@perfbench "


def _say(kind, payload=None):
    line = MARK + kind
    if payload is not None:
        line += " " + json.dumps(payload)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(workload, out_dir, tracer=None):
    """Time one pass, then apply its gates.

    Returns (wall, cpu, outcomes, info); with a tracer, info["_trace"]
    holds the spans of the timed calls only, not of the gates.
    """
    os.makedirs(out_dir)
    gc.collect()
    kwargs = {}
    if tracer is not None:
        tracer.reset()
        kwargs["span"] = tracer.span
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    results = workload.run(out_dir, **kwargs)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    trace = None
    if tracer is not None:
        trace = (tracer.stats, tracer.extra)
        tracer.reset()
    outcomes, info = workload.check(results, out_dir)
    shutil.rmtree(out_dir)
    if trace is not None:
        info["_trace"] = trace
    return wall, cpu, outcomes, info


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


class Runner:
    """Runs passes under a time budget and keeps every sample."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.count = 0
        self.attempted = 0
        self.failures = []

    def passes(self, seconds, tracer=None):
        """At least one pass; another only while it should fit in seconds."""
        walls, cpus, infos = [], [], []
        start = time.perf_counter()
        while True:
            self.count += 1
            out_dir = os.path.join(self.work_dir, "pass%d" % self.count)
            wall, cpu, outcomes, info = run_pass(self.workload, out_dir,
                                                 tracer)
            walls.append(wall)
            cpus.append(cpu)
            infos.append(info)
            self.attempted += len(outcomes)
            self.failures += [(name, err) for name, err in outcomes if err]
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > seconds:
                return walls, cpus, infos


def layer_metrics(snapshots, overhead_s):
    """Per-layer metrics, each the median over traced passes of its
    per-pass value (RSS growth: the largest, as ru_maxrss only grows once).

    snapshots holds one (stats, extra, info) triple per traced pass.
    """
    from tracer import LAYERS
    from workloads import CHECK_NAMES

    calls, total, self_ = 0, 1, 2   # fields of a tracer stats record
    none = (0, 0.0, 0.0)
    per_pass = []
    for stats, extra, info in snapshots:
        m = {}
        for layer in LAYERS:
            rows = [rec for name, rec in stats.items()
                    if name.split(".", 1)[0] == layer]
            m[layer + ".self_s"] = sum((rec[self_] for rec in rows), 0.0)
            m[layer + ".calls"] = sum(rec[calls] for rec in rows)
        for name in ("cli.main", "core.track_branches", "core.eigen_branches",
                     "spectra.power_spectrum_grid", "spectra.absorption_grid",
                     "dynamics.evolve_ode", "dynamics.analytic_trajectory",
                     "bath.kernel_freq"):
            m[name + ".self_s"] = stats.get(name, none)[self_]
        for name in ("core.eigen_branches", "dynamics.evolve_ode",
                     "bath.full_matrix"):
            m[name + ".calls"] = stats.get(name, none)[calls]
        for name in ["cli.load_config"] + [
                "bath.BathOracle." + method
                for method in ("spectrum", "dynamics", "effective_damping")]:
            m[name + ".s"] = stats.get(name, none)[total]
        m["bath.BathOracle.build_s"] = stats.get("bath.BathOracle.build",
                                                 none)[total]
        m["spectra.scalar_calls"] = extra["scalar_calls"]
        m["spectra.scalar_call_us"] = (
            1e6 * extra["scalar_s"] / extra["scalar_calls"]
            if extra["scalar_calls"] else 0.0)
        for check in CHECK_NAMES:
            m["acceptance.%s.s" % check] = stats.get("acceptance." + check,
                                                     none)[total]
            key = "acceptance.%s.budget_ratio" % check
            m[key] = info.get(key, 0.0)
        m["cli.csv_bytes"] = info.get("cli.csv_bytes", 0)
        m["bath.BathOracle.rss_delta_mb"] = extra["oracle_rss_delta_mb"]
        per_pass.append(m)
    # median_low keeps counts whole: every value is one pass's own
    out = {name: statistics.median_low(m[name] for m in per_pass)
           for name in per_pass[0]}
    out["bath.BathOracle.rss_delta_mb"] = max(
        m["bath.BathOracle.rss_delta_mb"] for m in per_pass)
    out["trace.overhead_s"] = overhead_s
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    import ioxsim
    import ioxsim.cli
    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(ioxsim.__file__).startswith(src):
        print("ioxsim imported from %s, not from %s"
              % (ioxsim.__file__, src), file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](root, args.seed)
    _say("ready")
    if args.setup_only:
        return 0

    import numpy as np
    import scipy
    work_dir = os.path.join(root, ".perfbench_work", "%d" % os.getpid())
    runner = Runner(workload, work_dir)
    result = {"versions": {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%(name)s %(version)s" % np.show_config(
            mode="dicts")["Build Dependencies"]["blas"]}}
    try:
        if args.trace:
            # traced passes first, so the first oracle build in this process
            # shows its ru_maxrss growth
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(ioxsim)
            traced, _, infos = runner.passes(args.seconds / 2, tracer)
            tracer.uninstall()
            plain, _, _ = runner.passes(args.seconds / 2)
            snaps = [info.pop("_trace") + (info,) for info in infos]
            result["metrics"] = layer_metrics(
                snaps, statistics.median(traced) - statistics.median(plain))
            result["pass_s"] = {"traced": traced, "untraced": plain}
        else:
            walls, cpus, _ = runner.passes(args.seconds)
            result["metrics"] = {
                "pass_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            result["pass_s"] = {"samples": walls,
                                "quartiles": _quartiles(walls)}
            result["cpu_s"] = {"samples": cpus, "quartiles": _quartiles(cpus)}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:  # another run is still using it
            pass
    result["attempted"] = runner.attempted
    result["failed"] = len(runner.failures)
    result["failures"] = ["%s: %s" % f for f in runner.failures[:20]]
    _say("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
