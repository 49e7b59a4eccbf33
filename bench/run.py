"""Benchmark for fpforms: end-to-end metrics per workload, per-layer spans on request.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5

Each workload runs in a process of its own, single-threaded, as a closed
loop with one client: the next item starts when the previous one has
finished.  The items come from a pool of rounds fixed by the seed; a run
cycles through the pool until ``--seconds`` have passed and every item
of it has been attempted, so ``attempted`` and ``failed`` count the
pool's distinct items and read the same on every run of a seed.  There is no queue, so there is no wait time to report.  The
program under test is the fpforms source tree next to this directory
(``src/fpforms``); the benchmark refuses to run without it.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics, measured untraced:

* ``ok_per_s``: items that completed and passed every check, divided by
  the summed time of all timed items;
* ``item_ms_p50``, ``item_ms_p90``: latency quantiles over the pool's
  distinct items, each item at the median of its executions and a
  failed item at +inf, so every item weighs the same however often the
  run repeated it;
* ``ok_ratio``: distinct items of the pool that passed over those
  attempted, that is 1 - fail_ratio (a ratio that can be 0 cannot carry a relative bound);
* ``setup_s``: median over several fresh processes of the time from
  starting the process, through ``import fpforms`` and generating the
  first round of inputs, to the first timed item;
* ``peak_rss_mb``: peak resident set of the workload process.

The first three are in reference units: each item time is scaled by the
square root of the speed of a fixed stdlib calibration pass, timed in the
same process just before the item's round, so that most of the machine's
drift cancels (see README.md here).

With ``--trace 1`` the run times the same rounds untraced and then with
spans installed (see spans.py), and reports per-layer metrics per item
plus the tracing overhead.  A wrong result aborts the run with exit
code 3 and no result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACES = BENCH / "traces"

SETUP_PROBES = 8  # extra processes that only set up; the worker is one more
CALIBRATION_PASSES = 3  # calibration passes before each round
# A typical calibration pass on the machine the benchmark was set up on
# (2 cores, Python 3.11.7).  It fixes the scale of the reference units only.
CALIBRATION_REF_MS = 3.0
# Item times follow the calibration pass only in part: over ten runs per
# workload, log item time against log calibration time had slopes of 0.4
# to 0.9 (correlation 0.8 to 0.9).  Scaling each round by the square root
# of its own ratio gave the smallest run-to-run spread over the workloads.
CALIBRATION_POWER = 0.5
MIN_POOL_ITEMS = 100  # every pool has as many, so at least 10 items lie beyond p90
TRACED_SHARE = 3  # a traced run times 1/3 of --seconds untraced, then traced
RUN_LIMIT_S = 170  # the whole run, set-up processes included
MISMATCH_EXIT = 3


def monotonic() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can
    # be compared with the parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ----------------------------------------------------------------------
# inside the workload process


def calibration_pass():
    """Milliseconds for a fixed piece of stdlib work: the machine's speed now.

    The work resembles the library's: dictionaries keyed by exponent tuples
    that are multiplied out and sorted, and integer arithmetic modulo a
    prime.  It calls no fpforms code, and the cyclic garbage collector is
    off while it runs, so neither fpforms nor the objects it keeps alive
    can move it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _calibration_work()
    finally:
        if enabled:
            gc.enable()


def _calibration_work():
    start = time.perf_counter()
    a = {(i % 7, i % 5, i % 3, i % 2): i % 13 + 1 for i in range(40)}
    b = {(i % 3, i % 4, i % 6, i % 5): i % 11 + 1 for i in range(30)}
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % 13
    dict(sorted((e, c) for e, c in out.items() if c))
    acc = {}
    x = 1
    for _ in range(2000):
        x = (x * 1103515245 + 12345) % 2147483648
        acc[x % 4096] = (acc.get(x % 4096, 0) + x) % 65521
    return (time.perf_counter() - start) * 1e3


def import_fpforms():
    sys.path.insert(0, str(SRC))
    import fpforms
    import fpforms.cli  # noqa: F401  (the audit workload drives the CLI)

    if Path(fpforms.__file__).resolve().parent != SRC / "fpforms":
        raise SystemExit("fpforms was imported from %s, not %s" % (fpforms.__file__, SRC))
    return fpforms


def set_up(workload, seed):
    fp = import_fpforms()
    first = workloads.generate_round(workload, seed, 0)
    gc.collect()
    return fp, first


class Loop:
    """Runs rounds of items, timing each item and checking its result.

    Round k is round k mod ``POOL_ROUNDS`` of the seed.  Each pool item
    must end the same way on every repeat: a typed error on one pass and
    a result on another is a mismatch.
    """

    def __init__(self, fp, workload, seed, first_round):
        self.fp = fp
        self.workload = workload
        self.seed = seed
        self.runner = workloads.RUNNERS[workload]
        self.first_round = first_round
        self.pool_rounds = workloads.POOL_ROUNDS[workload]
        self.latencies = []
        self.item_s = {}  # pool key -> the item's scaled latencies, one per execution
        self.timed_s = 0.0
        self.ref_s = 0.0  # timed_s in reference units
        self.round_scale = 1.0
        self.failures = {}  # distinct failed items by error type
        self.outcomes = {}  # pool key -> error type, or None for a pass
        self.monomials = 0
        self.rounds = 0
        self.calibration_ms = []
        self.outputs = {}  # audit: digest of each item's report, to compare repeats

    def round_items(self, k):
        # Rounds are made again on each pass rather than kept, so that the
        # pool does not weigh on peak_rss_mb.
        i = k % self.pool_rounds
        if i == 0:
            return self.first_round
        return workloads.generate_round(self.workload, self.seed, i)

    def run_item(self, key, item, tracer=None):
        clock = time.perf_counter
        if tracer is not None:
            tracer.item = len(self.latencies)
        start = clock()
        try:
            output = self.runner(self.fp, item)
        except self.fp.FpFormsError as exc:
            self.record_time(key, clock() - start, type(exc).__name__)
            return
        self.record_time(key, clock() - start, None)
        self.monomials += workloads.input_monomials(self.workload, item)
        if output is not None:
            self.check_repeat(key, output)

    def calibrate(self, passes_ms):
        """Sets the reference-unit scale for the round that follows."""
        self.calibration_ms += passes_ms
        median = statistics.median(passes_ms)
        # roughly what the round would take on a machine whose
        # calibration pass takes CALIBRATION_REF_MS
        self.round_scale = (CALIBRATION_REF_MS / median) ** CALIBRATION_POWER

    def record_time(self, key, elapsed, error):
        """One execution of pool item ``key``; a failed one counts as +inf."""
        self.timed_s += elapsed
        self.ref_s += elapsed * self.round_scale
        latency = math.inf if error else elapsed * self.round_scale
        self.latencies.append(latency)
        self.item_s.setdefault(key, []).append(latency)
        self.record_outcome(key, error)

    def record_outcome(self, key, error):
        if key not in self.outcomes:
            self.outcomes[key] = error
            if error is not None:
                self.failures[error] = self.failures.get(error, 0) + 1
        elif self.outcomes[key] != error:
            raise workloads.Mismatch(
                "item %r ended with %s, and with %s on a repeat"
                % (key, self.outcomes[key] or "a result", error or "a result")
            )

    def check_repeat(self, key, output):
        digest = hash(output)  # compared within this process only
        if self.outputs.setdefault(key, digest) != digest:
            raise workloads.Mismatch("item %r gave a different report on a repeat" % (key,))

    def run_rounds(self, first, count=None, seconds=None, tracer=None):
        """Rounds first.. until count rounds ran, or seconds passed and every pool item ran."""
        began = time.perf_counter()
        k = first
        while True:
            self.calibrate([calibration_pass() for _ in range(CALIBRATION_PASSES)])
            for j, item in enumerate(self.round_items(k)):
                self.run_item((k % self.pool_rounds, j), item, tracer)
            k += 1
            self.rounds += 1
            if count is not None and k - first >= count:
                return k - first
            if (
                seconds is not None
                and time.perf_counter() - began >= seconds
                and len(self.outcomes) == self.pool_items()
            ):
                return k - first

    def pool_items(self):
        return self.pool_rounds * len(self.first_round)

    def summary(self):
        ok = sum(1 for x in self.latencies if x != math.inf)
        lat = sorted(statistics.median(times) for times in self.item_s.values())
        return {
            "executions": len(self.latencies),
            "ok": ok,
            "attempted": len(self.outcomes),
            "failed": sum(self.failures.values()),
            "failures": self.failures,
            "timed_s": self.timed_s,
            "calibration_ms": statistics.median(self.calibration_ms),
            "calibration_passes": len(self.calibration_ms),
            "scale": self.ref_s / self.timed_s,  # over the whole run
            "ok_per_s": ok / self.ref_s,
            "p50_ms": nearest_rank(lat, 0.5) * 1e3,
            "p90_ms": nearest_rank(lat, 0.9) * 1e3,
            "rounds": self.rounds,
            "round_items": len(self.first_round),
            "monomials": self.monomials,
        }


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def worker(args):
    fp, first = set_up(args.workload, args.seed)
    ready = monotonic()
    loop = Loop(fp, args.workload, args.seed, first)
    result = {"ready": ready}
    if not args.trace:
        loop.run_rounds(0, seconds=args.seconds)
        if args.workload == "audit":
            # untimed repeat of the first seed: its JSON must be identical
            loop.check_repeat((0, 0), workloads.run_audit(fp, first[0]))
        result.update(loop.summary())
    else:
        result.update(traced(fp, loop, args))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


def traced(fp, loop, args):
    import spans

    rounds = loop.run_rounds(0, seconds=args.seconds / TRACED_SHARE)
    untraced_s = loop.timed_s
    executions = len(loop.latencies)
    tracer = spans.Tracer()
    tracer.install(fp)
    try:
        loop.timed_s = 0.0
        loop.run_rounds(0, count=rounds, tracer=tracer)
        traced_s = loop.timed_s
    finally:
        tracer.uninstall()
    tracer.write(TRACES / args.workload)
    items = len(loop.latencies) - executions
    metrics = {}
    for sid, name in enumerate(spans.SPAN_NAMES):
        metrics[name + ".calls"] = (tracer.calls[sid] / items, "calls/item")
        metrics[name + ".self_ms"] = (tracer.self_s[sid] * 1e3 / items, "ms/item")
    calls = dict(zip(spans.SPAN_NAMES, tracer.calls))
    integrate_calls = calls["poincare.integrate"]
    metrics.update(
        {
            "poly.ctor.terms_in": (tracer.ctor_terms_in / items, "terms/item"),
            "poly.ctor.clean_ratio": (
                tracer.ctor_clean / calls["poly.ctor"] if calls["poly.ctor"] else 0.0,
                "ratio",
            ),
            "ratfun.inflate.calls": (tracer.ratfun_inflate / items, "calls/item"),
            "operators.p_closed.per_integrate": (
                calls["operators.p_closed"] / integrate_calls if integrate_calls else 0.0,
                "ratio",
            ),
            "forms.d.per_integrate": (
                calls["forms.d"] / integrate_calls if integrate_calls else 0.0,
                "ratio",
            ),
            "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
            # the rest of the traced time: the benchmark's own code between
            # library calls, and the counters' inspection work
            "bench.self_ms": ((traced_s - sum(tracer.self_s)) * 1e3 / items, "ms/item"),
        }
    )
    summary = loop.summary()
    return {
        "executions": summary["executions"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "failures": summary["failures"],
        "ok": summary["ok"],
        "traced_items": items,
        "traced_rounds": rounds,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "spans": sum(tracer.calls),
        "spans_recorded": len(tracer.rec_start),
        "inspect_ms": tracer.inspect_s * 1e3 / items,
        "metrics": metrics,
    }


def probe(args):
    set_up(args.workload, args.seed)
    print(json.dumps({"ready": monotonic()}))


# ----------------------------------------------------------------------
# the orchestrating process


def spawn(role, args, deadline):
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = monotonic()
    proc = subprocess.run(
        cmd,
        capture_output=True,
        text=True,
        env=env,
        cwd=str(ROOT),
        timeout=max(1.0, deadline - monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready") - started
    return result


def measure(args):
    deadline = monotonic() + RUN_LIMIT_S
    setups = [spawn("probe", args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    result = spawn("worker", args, deadline)
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = len(setups)
    return result


def end_to_end(r):
    return {
        "ok_per_s": (r["ok_per_s"], "items/ref_s"),
        "item_ms_p50": (r["p50_ms"], "ref_ms"),
        "item_ms_p90": (r["p90_ms"], "ref_ms"),
        "ok_ratio": (1 - r["failed"] / r["attempted"], "ratio"),
        "setup_s": (r["setup_s"], "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }


def report(workload, args, r):
    """Human-readable lines; the JSON result line comes after them."""
    lines = [
        "%s, seed %d: closed loop, 1 client, 1 thread; no queue, so no wait time"
        % (workload, args.seed)
    ]
    failed, attempted = r["failed"], r["attempted"]
    kinds = ", ".join("%s %d" % kv for kv in sorted(r["failures"].items())) or "none"
    if not args.trace:
        lines += [
            "  input        %d items in %d rounds of %d, %d input monomials;"
            " a pool of %d distinct items, each attempted"
            % (r["executions"], r["rounds"], r["round_items"], r["monomials"], attempted),
            "  speed        calibration pass %.3f ms (median of %d), reference %.3f ms:"
            " ref = raw x %.4f over the run"
            % (r["calibration_ms"], r["calibration_passes"], CALIBRATION_REF_MS, r["scale"]),
            "  ok_per_s     %10.3f items/ref_s  (raw %.3f items/s; %d ok of %d executed, %.2f s timed)"
            % (r["ok_per_s"], r["ok_per_s"] * r["scale"], r["ok"], r["executions"], r["timed_s"]),
            "  item_ms_p50  %10.3f ref_ms       (raw ~%.3f ms; n=%d distinct items)"
            % (r["p50_ms"], r["p50_ms"] / r["scale"], attempted),
            "  item_ms_p90  %10.3f ref_ms       (raw ~%.3f ms; n=%d distinct items, %d beyond)"
            % (
                r["p90_ms"],
                r["p90_ms"] / r["scale"],
                attempted,
                attempted - math.ceil(0.9 * attempted),
            ),
            "  fail_ratio   %10.4f ratio    (%d of %d distinct items: %s; ok_ratio %.4f)"
            % (failed / attempted, failed, attempted, kinds, 1 - failed / attempted),
            "  setup_s      %10.4f s        (median of %d process starts)"
            % (r["setup_s"], r["setup_samples"]),
            "  peak_rss_mb  %10.1f MB" % r["peak_rss_mb"],
        ]
    else:
        lines.append(
            "  traced %d items (%d rounds): %.3f s traced vs %.3f s untraced; %d spans, %d recorded"
            % (
                r["traced_items"],
                r["traced_rounds"],
                r["traced_s"],
                r["untraced_s"],
                r["spans"],
                r["spans_recorded"],
            )
        )
        spans_ms = 0.0
        for name, (value, unit) in sorted(r["metrics"].items()):
            lines.append("  %-36s %12.4f %s" % (name, value, unit))
            if name.endswith(".self_ms") and name != "bench.self_ms":
                spans_ms += value
        lines.append(
            "  traced time %.3f ms/item = span self times %.3f + benchmark %.3f"
            " (of which counters' inspection %.3f)"
            % (
                r["traced_s"] * 1e3 / r["traced_items"],
                spans_ms,
                r["metrics"]["bench.self_ms"][0],
                r["inspect_ms"],
            )
        )
        lines.append("  failures: %d of %d distinct items: %s" % (failed, attempted, kinds))
    return "\n".join(lines)


def result_line(args, r):
    metrics = r["metrics"] if args.trace else end_to_end(r)
    return {
        "correct": True,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("probe", "worker"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.role:
        try:
            (worker if args.role == "worker" else probe)(args)
        except workloads.Mismatch as exc:
            print("MISMATCH (%s, seed %d): %s" % (args.workload, args.seed, exc), file=sys.stderr)
            return MISMATCH_EXIT
        return 0
    if not (SRC / "fpforms" / "__init__.py").is_file():
        print("error: no fpforms source tree at %s" % SRC, file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        one = argparse.Namespace(**dict(vars(args), workload=name))
        r = measure(one)
        print(report(name, one, r), flush=True)
        results[name] = result_line(one, r)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
