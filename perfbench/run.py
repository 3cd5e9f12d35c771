"""Benchmark of the weylpi library, run from the root of a source checkout.

    python3 perfbench/run.py --workload verify-d6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all              # every workload, as a table

One process per workload, single-threaded.  A run repeats the workload's
job list (one pass) until ``--seconds`` have passed, checks every output,
and prints one JSON object as its last line.  With ``--trace 0`` it reports
the end-to-end metrics, measured with no tracing; with ``--trace 1`` it
reports the per-layer metrics from an untimed exact-count pass and from
traced passes alternated with untraced ones.  Times are reported in
reference seconds (see ``reference_quantum``).  Exit code 0 when every
operation passed its check, 1 when one failed, 2 when the library cannot
be imported from the checkout.
"""

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 7
REFERENCE_S = 0.02  # nominal time of one reference quantum
QUANTUM_EVERY_S = 0.1  # operation time between two quanta in a pass

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "max_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, how it is computed): "self:" is the self time
# of one span name per pass, "count:" an exact count of one pass, "share:"
# a layer's self time over all operation time.  A row fed to the eliminator
# again within one operation is repeated work, so pivot_ratio counts pivots
# beyond such rows.
PER_LAYER = {
    "bracket.enumerate_ms": ("ms", "self:bracket.enumerate"),
    "bracket.expand_ms": ("ms", "self:bracket.expand"),
    "bracket.monomials": ("count", "count:bracket.monomials"),
    "evaluation.generic_ms": ("ms", "self:evaluation.generic"),
    "evaluation.generic_calls": ("count", "count:evaluation.generic.calls"),
    "evaluation.terms_out": ("count", "count:evaluation.terms_out"),
    "evaluation.tuple_ms": ("ms", "self:evaluation.tuple"),
    "evaluation.tuple_calls": ("count", "count:evaluation.tuple.calls"),
    "evaluation.weak_ms": ("ms", "self:evaluation.weak"),
    "weyl.mul_ms": ("ms", "self:weyl.mul"),
    "weyl.mul_calls": ("count", "count:weyl.mul.calls"),
    "linalg.sparse_ms": ("ms", "self:linalg.sparse"),
    "linalg.sparse_calls": ("count", "count:linalg.sparse.calls"),
    "linalg.rows_in": ("count", "count:linalg.rows_in"),
    "linalg.nnz_in": ("count", "count:linalg.nnz_in"),
    "linalg.rank": ("count", "count:linalg.rank"),
    "linalg.rows_refed": ("count", "count:linalg.rows_refed"),
    "linalg.pivot_ratio": ("ratio", "ratio:linalg.new_pivots/linalg.rows_in"),
    "linalg.dense_ms": ("ms", "self:linalg.dense"),
    "linalg.dense_cells": ("count", "count:linalg.dense_cells"),
    "identities.span_ms": ("ms", "self:identities.span"),
    "identities.span_rows": ("count", "count:identities.span_rows"),
    "identities.shortcut_ratio": ("ratio", "ratio:identities.shortcuts/identities.reports"),
    "free_algebra.mul_ms": ("ms", "self:free_algebra.mul"),
    "free_algebra.mul_calls": ("count", "count:free_algebra.mul.calls"),
    "rewriter.normal_form_ms": ("ms", "self:rewriter.normal_form"),
    "rewriter.steps": ("count", "count:rewriter.steps"),
    "rewriter.terms_out": ("count", "count:rewriter.terms_out"),
    "parser.parse_ms": ("ms", "self:parser.parse"),
    "parser.format_ms": ("ms", "self:parser.format"),
    "evaluation.inclusive_share": ("ratio", "inclusive:evaluation"),
    "trace.overhead_ratio": ("ratio", "overhead"),
}
PER_LAYER.update({f"{layer}.self_share": ("ratio", "share:" + layer) for layer in tracing.LAYERS})


def import_weylpi():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import weylpi

    if Path(weylpi.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"weylpi imported from {weylpi.__file__}, not from {SRC}")
    return weylpi


# -- the reference quantum ------------------------------------------------------
# On a shared host the speed of a vCPU changes by up to 2x for tens of
# seconds at a time, and the least or median time of an operation over a
# run moves with it.  So a run also times a fixed quantum of pure-Python
# work of the library's kind between its operations: a sparse product of two
# polynomials with Fraction coefficients, keyed by exponent tuples, which
# imports nothing from weylpi.  Every time is reported in reference seconds:
# an operation's measured seconds times REFERENCE_S over the mean of the two
# quanta that bracket it.  On a shared 2-vCPU VM, over 90 passes of
# verify-d6 cut into runs of 12 passes, the sum of the per-job medians
# spread by 0.079 of its median (interquartile range) in measured seconds
# and by 0.006 in reference seconds; on normalize-d7 the 90th percentile
# spread by 0.134 and 0.043.  The quantum's own median was 23 ms there, its
# least 13 ms.

def _factors():
    rng = random.Random(5)
    return [
        {tuple(rng.randrange(4) for _ in range(5)): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
         for _ in range(60)}
        for _ in range(2)
    ]


_FACTORS = _factors()


def reference_quantum():
    """Seconds that one quantum of reference work takes now."""
    t0 = perf_counter()
    out = {}
    for k1, c1 in _FACTORS[0].items():
        for k2, c2 in _FACTORS[1].items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return perf_counter() - t0


def to_reference(quanta):
    """Factor from measured to reference seconds, given nearby quanta."""
    return REFERENCE_S / statistics.median(quanta)


def setup_probe(workload):
    """Set-up time as a user pays it: import, field, one warm-up call."""
    t0 = perf_counter()
    import_weylpi()
    W.Workload(workload).warm_up()
    seconds = perf_counter() - t0
    return seconds * to_reference([reference_quantum() for _ in range(9)])


def setup_seconds(workload):
    """Median set-up time of fresh interpreters (an import is once per process)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


# -- passes ---------------------------------------------------------------------


def run_pass(wl, jobs, tracer=None):
    """One pass over the job list; returns per-job reference seconds, the
    pass's factor from measured to reference seconds (for span times), and
    the jobs whose output failed its check.

    A full garbage collection before each operation, off the clock, starts
    every operation from the same collector state.  Reference quanta run at
    the start and end of the pass and after every QUANTUM_EVERY_S of
    operation time; checks run after the pass.
    """
    outs, lat, quanta, since = [], [], [reference_quantum()], 0.0
    before = []  # index of the last quantum before each job
    for i, job in enumerate(jobs):
        before.append(len(quanta) - 1)
        gc.collect()
        t0 = perf_counter()
        try:
            out = tracer.op(i, wl.op, job) if tracer else wl.op(job)
        except Exception as exc:  # counted as a failed operation
            out = exc
        lat.append(perf_counter() - t0)
        outs.append(out)
        since += lat[-1]
        if since >= QUANTUM_EVERY_S:
            quanta.append(reference_quantum())
            since = 0.0
    quanta.append(reference_quantum())
    scaled = [x * to_reference(quanta[q:q + 2]) for x, q in zip(lat, before)]
    failures = [job for job, out in zip(jobs, outs) if not passes_check(wl, job, out)]
    return scaled, to_reference(quanta), failures


def passes_check(wl, job, out):
    if isinstance(out, Exception):
        print(f"error: {job.key}: {out!r}", file=sys.stderr)
        return False
    try:
        ok = wl.check(job, out)
    except Exception as exc:  # a missing or malformed golden entry
        print(f"error: checking {job.key}: {exc!r}", file=sys.stderr)
        return False
    if not ok:
        print(f"wrong output: {job.key}", file=sys.stderr)
    return bool(ok)


class Tally:
    """Operations attempted and failed over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, jobs, failures):
        self.attempted += len(jobs)
        self.failed += len(failures)


def end_to_end(wl, jobs, seconds, tally):
    lats, passes = [[] for _ in jobs], 0
    t0 = perf_counter()
    factors = []
    while not passes or perf_counter() - t0 < seconds:
        lat, factor, failures = run_pass(wl, jobs)
        tally.add(jobs, failures)
        passes += 1
        factors.append(factor)
        for acc, x in zip(lats, lat):
            acc.append(x)
    # An operation's latency is the median of its repeats, in reference seconds.
    per_job = [statistics.median(x) for x in lats]
    p90 = statistics.quantiles(per_job, n=10)[-1] if len(per_job) > 1 else per_job[0]
    print(f"{wl.name}: {len(jobs)} operations x {passes} passes; latency of an "
          f"operation is its median over the passes; {sum(x > p90 for x in per_job)} "
          f"operations above p90; measured-to-reference factor of a pass "
          f"{min(factors):.3f}-{max(factors):.3f}", file=sys.stderr)
    return {
        "wall_s": sum(per_job),
        "op_p50_ms": statistics.median(per_job) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "max_op_s": max(per_job),
        "setup_s": setup_seconds(wl.name),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def count_pass(wl, jobs, tally):
    """The untimed exact-count pass; returns the tracer's counts."""
    with tracing.Tracer(counting=True) as counter:
        _, _, failures = run_pass(wl, jobs, counter)
    tally.add(jobs, failures)
    counts = counter.counts
    counts["linalg.new_pivots"] = counts.get("linalg.rank", 0) - counts.get("linalg.rows_refed", 0)
    return counts, counter.absent


def per_layer(wl, jobs, seconds, seed, tally):
    t0 = perf_counter()
    counts, absent = count_pass(wl, jobs, tally)
    tracer = tracing.Tracer()
    plain, traced, factors = [], [], []
    while not traced or perf_counter() - t0 < seconds:
        lat, _, failures = run_pass(wl, jobs)
        tally.add(jobs, failures)
        plain.append(sum(lat))
        with tracer:
            lat, factor, failures = run_pass(wl, jobs, tracer)
        tally.add(jobs, failures)
        traced.append(sum(lat))
        factors.append(factor)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.jsonl.gz")
    for name in absent:
        print(f"absent: {name} (boundary not found in this checkout)", file=sys.stderr)
    self_s = tracer.self_times()
    total = tracer.op_seconds()
    factor = statistics.median(factors)  # span times are measured seconds
    out = {}
    for metric, (_, how) in PER_LAYER.items():
        kind, _, arg = how.partition(":")
        if kind == "self":
            out[metric] = self_s.get(arg, 0.0) * factor / len(traced) * 1e3
        elif kind == "count":
            out[metric] = counts.get(arg, 0)
        elif kind == "ratio":
            num, den = arg.split("/")
            out[metric] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        elif kind == "share":
            layer_s = sum(t for name, t in self_s.items() if name.split(".")[0] == arg)
            out[metric] = layer_s / total
        elif kind == "inclusive":
            out[metric] = tracer.inclusive_seconds(arg) / total
        else:
            out[metric] = statistics.median(traced) / statistics.median(plain)
    return out


# -- entry points ---------------------------------------------------------------


def run_workload(args):
    try:
        import_weylpi()
    except ImportError as exc:
        print(f"error: cannot import weylpi from {SRC}: {exc}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    jobs = W.make_jobs(args.workload, args.seed, smoke=args.smoke)
    wl = W.Workload(args.workload, golden)
    wl.warm_up()
    tally = Tally()
    if args.trace:
        values = per_layer(wl, jobs, args.seconds, args.seed, tally)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values, units = end_to_end(wl, jobs, args.seconds, tally), END_TO_END
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0 if tally.failed == 0 else 1


def run_all(args):
    """Every workload in its own process; one table line per metric."""
    status = 0
    for workload in W.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            print(f"{workload}: no result (exit {proc.returncode})")
            return 2
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:14} {name:28} {m['value']:>14.6g} {m['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:14} {'fail_ratio':28} {ratio:>14.6g} failed/attempted "
              f"({result['failed']}/{result['attempted']})")
        status = max(status, proc.returncode)
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few jobs per workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload))
        return 0
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
