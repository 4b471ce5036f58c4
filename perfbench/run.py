"""Pipeline benchmark for prymcover.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports the package from the checkout's own ``src/`` (never an installed
copy) and runs one workload as a closed loop with one client in this single
process.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
measures the per-layer metrics of a fixed op list with the tracer installed,
against an untraced run of the same ops in a fresh process.  Every output is
checked; the last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code is 1
when a check failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE_INIT = os.path.join(SRC, "prymcover", "__init__.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("prym-g2", "prym-sweep", "recover-g2", "certify-cli")
# set-up is sampled in fresh processes until there are at least
# SETUP_MIN_CHILDREN samples and SETUP_MIN_S seconds of them (at most
# SETUP_MAX_CHILDREN), then once more in this process; setup_s is the median
SETUP_MIN_CHILDREN = 2
SETUP_MAX_CHILDREN = 10
SETUP_MIN_S = 3.0
CHILD_TIMEOUT_S = 170
TAIL_LEVELS = (99.9, 99.0, 90.0)
TAIL_SAMPLES_ABOVE = 10

# End-to-end metrics: name -> unit.  op_p50_s, op_tail_s and error_rate are
# printed but not in the result line: the median and the tail need more ops
# than the slow workloads make in a run, and error_rate is 0 on a correct run.
E2E_UNITS = {
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Put the checkout's src/ first on the path and check the package came
    from there."""
    sys.path.insert(0, SRC)
    import prymcover

    if os.path.realpath(prymcover.__file__) != os.path.realpath(PACKAGE_INIT):
        raise SystemExit("error: prymcover imported from %s, not %s" % (prymcover.__file__, PACKAGE_INIT))
    import workloads

    return workloads


def set_up(name: str, seed: int, workdir: str):
    """Import, build the inputs and warm up; returns (workload, seconds)."""
    start = time.perf_counter()
    workloads = _import_package()
    wl = workloads.WORKLOADS[name](seed, workdir, workloads.load_golden().get(name, {}))
    wl.setup()
    return wl, time.perf_counter() - start


def op_stream(wl):
    return itertools.cycle(wl.keys) if wl.cycle else iter(wl.keys)


class OpLog:
    """Latencies, failures and output digests of one op loop."""

    def __init__(self) -> None:
        self.latencies = []
        self.failed = 0
        self.problems = []
        self.digests = []
        self.first_docs = {}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def throughput(self) -> float:
        return (self.attempted - self.failed) / sum(self.latencies)


def run_ops(wl, keys, deadline=None, tracer=None) -> OpLog:
    """Closed loop over ``keys``: each op starts when the previous one and its
    check are done.  Latency covers the op only, not the check.  Past the
    deadline no op starts, except to finish a whole first pass."""
    import workloads

    log = OpLog()
    whole = len(wl.keys) if wl.whole_pass else 0
    for n, key in enumerate(keys):
        if deadline is not None and n >= whole and time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        try:
            if tracer is None:
                docs = wl.run_op(key)
            else:
                docs = tracer.op_span(n, wl.run_op, key)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            log.latencies.append(time.perf_counter() - start)
            log.failed += 1
            log.digests.append(None)
            log.problems.append("op %d (%r): %s: %s" % (n, key, type(exc).__name__, exc))
            continue
        log.latencies.append(time.perf_counter() - start)
        digest = workloads.digest(docs)
        log.digests.append(digest)
        bad = wl.check_op(key, docs)
        first = log.first_docs.setdefault(key, docs)
        if workloads.digest(first) != digest:
            bad.append("op %d (%r): output differs from the first run of these inputs" % (n, key))
        if bad:
            log.failed += 1
            log.problems.extend(bad)
    return log


def tail(latencies):
    """(percentile, value) at the highest of TAIL_LEVELS that leaves at least
    TAIL_SAMPLES_ABOVE samples above it, or None."""
    ordered = sorted(latencies)
    n = len(ordered)
    for level in TAIL_LEVELS:
        rank = math.ceil(n * level / 100.0)  # nearest-rank, 1-based
        if n - rank >= TAIL_SAMPLES_ABOVE:
            return level, ordered[rank - 1]
    return None


def _child(args, role: str) -> dict:
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--child",
        role,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s child exited %d" % (role, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _header(wl, args) -> None:
    print(
        "workload %s  seed %d  python %s  nproc %d"
        % (args.workload, args.seed, platform.python_version(), os.cpu_count() or 0)
    )
    print("inputs sha256 %s" % wl.input_digest())


def setup_samples(args):
    samples = []
    while len(samples) < SETUP_MAX_CHILDREN and (
        len(samples) < SETUP_MIN_CHILDREN or sum(samples) < SETUP_MIN_S
    ):
        samples.append(_child(args, "setup")["setup_s"])
    return samples


def measure(args, workdir: str) -> int:
    samples = setup_samples(args)
    wl, own = set_up(args.workload, args.seed, workdir)
    samples.append(own)
    _header(wl, args)
    start = time.perf_counter()
    log = run_ops(wl, op_stream(wl), deadline=start + args.seconds)
    wall = time.perf_counter() - start
    problems = log.problems + wl.final_check(log.first_docs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {
        "throughput_ops_s": log.throughput(),
        "setup_s": statistics.median(samples),
        "peak_rss_mb": rss_mb,
    }
    for name, value in metrics.items():
        print("%-17s %.6g %s" % (name, value, E2E_UNITS[name]))
    print("  ops %d in a %.2f s timed phase" % (log.attempted, wall))
    print("  setup_s is the median of %d set-ups: %s" % (len(samples), ", ".join("%.4f" % s for s in samples)))
    print("op_p50_s          %.6g s (n=%d)" % (statistics.median(log.latencies), log.attempted))
    found = tail(log.latencies)
    if found is None:
        print("op_tail_s         not reported: n=%d leaves fewer than %d samples above p%g"
              % (log.attempted, TAIL_SAMPLES_ABOVE, TAIL_LEVELS[-1]))
    else:
        print("op_tail_s         %.6g s at p%g (n=%d)" % (found[1], found[0], log.attempted))
    print("error_rate        %.6g (%d of %d ops)" % (log.failed / log.attempted, log.failed, log.attempted))
    for line in problems:
        print("CHECK FAILED: %s" % line)
    metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()}
    return _result(not problems, log.attempted, log.failed, metrics)


def traced(args, workdir: str) -> int:
    import tracer as tracing

    base = _child(args, "baseline")
    wl, _ = set_up(args.workload, args.seed, workdir)
    _header(wl, args)
    keys = list(itertools.islice(op_stream(wl), wl.trace_ops))
    tr = tracing.Tracer()
    tr.install()
    try:
        log = run_ops(wl, keys, tracer=tr)
    finally:
        replaced = tr.installed()
        tr.uninstall()
    problems = log.problems + wl.final_check(log.first_docs)
    problems += [
        "%s.%s was not restored" % (getattr(ns, "__name__", ns), attr)
        for ns, attr, original in replaced
        if getattr(ns, attr) is not original
    ]
    if log.digests != base["digests"]:
        problems.append("traced outputs differ from the untraced run of the same ops")

    metrics = tr.layer_metrics(log.attempted)
    metrics["trace.throughput_traced_ops_s"] = log.throughput()
    metrics["trace.throughput_untraced_ops_s"] = base["throughput_ops_s"]
    metrics["trace.overhead_ratio"] = base["throughput_ops_s"] / log.throughput()
    path = os.path.join(OUT_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "ops": log.attempted,
                "span_fields": ["name", "start", "end", "parent", "op"],
                "spans": tr.spans,
                "counts": tr.counts,
                "totals": tr.span_totals(),
                "metrics": metrics,
            },
            fh,
        )
    units = dict(tracing.METRICS)
    for name in sorted(metrics):
        print("%-40s %.6g %s" % (name, metrics[name], units[name][0]))
    print("  %d traced ops, %d spans written to %s" % (log.attempted, len(tr.spans), path))
    for line in problems:
        print("CHECK FAILED: %s" % line)
    out = {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()}
    return _result(not problems, log.attempted, log.failed, out)


def child(args, workdir: str) -> int:
    """Roles run in a fresh process: ``setup`` times set-up alone;
    ``baseline`` runs the traced run's op list untraced."""
    wl, seconds = set_up(args.workload, args.seed, workdir)
    if args.child == "setup":
        print(json.dumps({"setup_s": seconds}))
        return 0
    log = run_ops(wl, itertools.islice(op_stream(wl), wl.trace_ops))
    print(json.dumps({"throughput_ops_s": log.throughput(), "digests": log.digests}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "baseline"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(PACKAGE_INIT):
        print("error: %s not found; run from a prymcover checkout" % PACKAGE_INIT, file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        if args.child:
            return child(args, workdir)
        if args.trace:
            return traced(args, workdir)
        return measure(args, workdir)


if __name__ == "__main__":
    sys.exit(main())
