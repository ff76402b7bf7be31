#!/usr/bin/env python3
"""The postrig benchmark: one seeded workload, one process, one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations in a closed loop (each call
starts when the previous one has returned) until --seconds have passed,
then checks every answer against refs.py (mpmath) or a property the method
must have, and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones (see layers.py).  Timed metrics are divided by a
reference slice of the benchmark's own code, interleaved with the
operations, and reported in milliseconds of a machine on which that slice
takes 1 ms (README.md, "Steadiness").  Run outputs go to perfbench/out/.
"""

from __future__ import annotations

import os

# one thread for every numeric library, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "POSTRIG_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
SETUP_SLICES = 16     # reference slices each setup probe runs after it is ready
REF_GAP_S = 0.02      # at most this much operation time between reference slices
REF_WINDOW = 4        # slices on each side of an operation that set its speed
NOMINAL_REF_S = 1e-3  # reported times are scaled to a slice of this length
TAIL_BEYOND = 10      # samples a tail percentile must leave above it
MIN_TAIL_OPS = 40


# ---------------------------------------------------------------------------
# the reference slice: fixed work from this file alone, shaped like the
# workload's own work so that it speeds up and slows down with it: a numpy
# recurrence over a grid (like the Clenshaw kernel) and a scalar float series
# loop (like the special-function solvers), in a per-workload mix

REF_MIX = {  # (grid points, recurrence steps, series terms)
    "sweep": (4096, 24, 600),
    "highdeg": (4096, 30, 1500),
    "special": (512, 8, 2400),
    "setup": (512, 8, 2400),  # the import is scalar Python work
}


def _make_ref_slice(workload: str):
    import numpy as np
    m, steps, terms = REF_MIX[workload]
    c = np.linspace(0.5, 1.5, steps)
    kappa = -4.0 * np.sin(np.linspace(0.01, 1.5, m)) ** 2

    def ref_slice() -> float:
        t0 = time.perf_counter()
        u = np.zeros_like(kappa)
        e = np.zeros_like(kappa)
        for ck in c:
            e_new = ck + kappa * u + e
            u = e_new + u
            e = e_new
        acc, term = 0.0, 1.0
        for k in range(1, terms):
            term *= -0.25 / (k * (k + 0.5))
            acc += term + (k % 7) * 1e-9
        if not (np.isfinite(u).all() and acc == acc):
            raise ArithmeticError("reference slice diverged")
        return time.perf_counter() - t0
    return ref_slice


class Clock:
    """Operation timings with reference slices interleaved between them."""

    def __init__(self, workload: str):
        self.ref_slice = _make_ref_slice(workload)
        self.slice_mid: list[float] = []
        self.slice_dur: list[float] = []
        self._since = 0.0

    def tick(self, force: bool = False) -> None:
        if force or self._since >= REF_GAP_S:
            t0 = time.perf_counter()
            dur = self.ref_slice()
            self.slice_mid.append(t0 + 0.5 * dur)
            self.slice_dur.append(dur)
            self._since = 0.0

    def spent(self, dt: float) -> None:
        self._since += dt

    def local_ref(self, t_start: float, t_end: float) -> float:
        """Median slice length around an interval: REF_WINDOW slices before it
        and REF_WINDOW after it."""
        j = bisect.bisect_left(self.slice_mid, t_end)
        i = bisect.bisect_right(self.slice_mid, t_start)
        window = self.slice_dur[max(0, i - REF_WINDOW):i] + self.slice_dur[j:j + REF_WINDOW]
        return statistics.median(window or self.slice_dur)

    def scale(self, t_start: float, t_end: float) -> float:
        """Factor from raw time in [t_start, t_end] to reference-speed time."""
        return NOMINAL_REF_S / self.local_ref(t_start, t_end)

    def between(self, t_start: float, t_end: float) -> float:
        """Factor from raw time to reference-speed time over a whole stretch."""
        durs = [d for m, d in zip(self.slice_mid, self.slice_dur) if t_start <= m <= t_end]
        return NOMINAL_REF_S / statistics.median(durs or self.slice_dur)

    def ref_ms(self) -> float:
        return 1e3 * statistics.median(self.slice_dur)


# ---------------------------------------------------------------------------
# setup: process start to the first operation, in child processes

def probe_setup(workload: str, seed: int) -> int:
    """Child side: import postrig and build the inputs, report, then time
    reference slices on the same CPU for the parent to scale by."""
    import workloads
    workloads.make_round(workload, seed, workloads.load_refs())
    print("ready", flush=True)
    clock = Clock("setup")
    for _ in range(SETUP_SLICES):
        clock.tick(force=True)
    print(statistics.median(clock.slice_dur), flush=True)
    return 0


def measure_setup(workload: str, seed: int) -> tuple[float, list[float]]:
    """Median over SETUP_PROBES child processes of the time from starting the
    child to its first operation, each scaled by the child's own reference
    slices (the child may run on another CPU than this process)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            ref_s = child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed: {line!r}")
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * NOMINAL_REF_S / float(ref_s))
    return statistics.median(scaled), raw


# ---------------------------------------------------------------------------
# the closed loop

def fingerprint(op, result) -> str:
    """A repeatable digest of an operation's output, compared across rounds."""
    if op.kind in ("certify", "belov-refute", "find_min", "criterion"):
        body = result[1]
        if hasattr(body, "to_dict"):
            return json.dumps(body.to_dict(), sort_keys=True)
        return repr(body)
    if op.kind in ("cli-certify", "cli-constants"):
        path, code = result
        with open(path, encoding="utf-8") as fh:
            return f"{code}:{fh.read()}"
    if op.kind == "zeros":
        return repr(result.brackets)
    return repr(result)


class Loop:
    def __init__(self, ops, out_dir: Path, clock: Clock):
        self.ops = ops
        self.out_dir = out_dir
        self.clock = clock
        self.first: list = [None] * len(ops)
        self.errors: dict[int, str] = {}
        self.prints: list[str | None] = [None] * len(ops)
        self.mismatch: list[str] = []
        self.records: list[tuple[int, int, float, float]] = []  # round, op, start, end
        self.rounds = 0

    def run_round(self) -> None:
        import workloads
        r = self.rounds
        for i, op in enumerate(self.ops):
            self.clock.tick()
            t0 = time.perf_counter()
            try:
                result = workloads.execute(op, self.out_dir)
            except Exception as exc:  # counted as a failed operation
                t1 = time.perf_counter()
                result = None
                digest = f"error: {type(exc).__name__}: {exc}"
                self.errors.setdefault(i, digest)
            else:
                t1 = time.perf_counter()
                digest = fingerprint(op, result)
            self.clock.spent(t1 - t0)
            self.records.append((r, i, t0, t1))
            if r == 0:
                self.first[i] = result
                self.prints[i] = digest
            elif digest != self.prints[i]:
                self.mismatch.append(f"{op.label}: round {r} output differs from round 0")
        self.rounds += 1

    def scaled_times(self, rounds) -> dict[int, list[float]]:
        """Per operation, its reference-scaled times in ms over `rounds`."""
        out: dict[int, list[float]] = {i: [] for i in range(len(self.ops))}
        for r, i, t0, t1 in self.records:
            if r in rounds:
                out[i].append(1e3 * (t1 - t0) * self.clock.scale(t0, t1))
        return out


def run_for(loop: Loop, seconds: float, min_rounds: int = 1) -> None:
    t_end = time.perf_counter() + seconds
    start = loop.rounds
    while loop.rounds - start < min_rounds or time.perf_counter() < t_end:
        loop.run_round()
    loop.clock.tick(force=True)


# ---------------------------------------------------------------------------
# metrics

def tail_of(per_op: list[float]) -> tuple[float, str]:
    """The highest percentile leaving TAIL_BEYOND operations of a round above
    it; with fewer than MIN_TAIL_OPS operations per round, the slowest one."""
    xs = sorted(per_op)
    n = len(xs)
    if n < MIN_TAIL_OPS:
        return xs[-1], f"slowest of {n} operations"
    return xs[n - 1 - TAIL_BEYOND], f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} operations"


def end_to_end(loop: Loop, setup_s: float, samples: int, rss_mb: float) -> tuple[dict, str]:
    times = loop.scaled_times(range(loop.rounds))
    per_op = [statistics.median(v) for v in times.values()]
    total_ms = sum(sum(v) for v in times.values())
    tail, tail_note = tail_of(per_op)
    metrics = {
        "ops_per_s": {"value": len(loop.ops) * loop.rounds / (total_ms / 1e3), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(per_op), "unit": "ms"},
        "op_tail_ms": {"value": tail, "unit": "ms"},
        "samples": {"value": samples, "unit": "count"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    note = (f"{loop.rounds} rounds x {len(loop.ops)} operations = "
            f"{loop.rounds * len(loop.ops)} samples; op_tail_ms is the {tail_note} "
            f"(each the median of its {loop.rounds} timings)")
    return metrics, note


def per_layer(loop: Loop, tracer, plain_rounds: int, t_traced: float,
              t_done: float) -> tuple[dict, str]:
    traced = loop.rounds - plain_rounds
    times = loop.scaled_times(range(loop.rounds))
    per_round = [sum(times[i][r] for i in times) for r in range(loop.rounds)]
    layer = tracer.per_layer(traced, 1e3 * loop.clock.between(t_traced, t_done))
    layer["trace.overhead_ms"] = (statistics.mean(per_round[plain_rounds:])
                                  - statistics.mean(per_round[:plain_rounds]))
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    note = (f"{plain_rounds} untraced and {traced} traced rounds of {len(loop.ops)} "
            f"operations; per-layer figures are per traced round")
    return metrics, note


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("ns_per_coeff_point"):
        return "ns"
    return "count"


def round_samples(loop: Loop) -> int:
    import workloads
    return sum(workloads.samples_of(op, res) for op, res in zip(loop.ops, loop.first)
               if res is not None)


# ---------------------------------------------------------------------------
# checking, after the timed region

def check_all(loop: Loop, refs: dict, seed: int) -> tuple[list[str], set[int]]:
    import numpy as np
    import checks
    rng = np.random.default_rng([seed, 99])
    problems = list(loop.mismatch)
    failed = set(loop.errors)
    for i, (op, res) in enumerate(zip(loop.ops, loop.first)):
        if res is None:
            continue
        found = checks.check_op(op, res, refs, rng)
        if any("got inconclusive" in f for f in found):
            failed.add(i)  # no verdict where a theorem fixes one: a failed operation
        else:
            problems += [f"{op.label}: {f}" for f in found]
    return problems, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "highdeg", "special"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "postrig" / "__init__.py").is_file():
        print(f"postrig sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        return probe_setup(args.workload, args.seed)

    detail: dict = {}
    if not args.trace:
        setup_s, detail["setup_probes_raw_s"] = measure_setup(args.workload, args.seed)
    import workloads
    refs = workloads.load_refs()
    ops = workloads.make_round(args.workload, args.seed, refs)
    out_dir = OUT / "cli" / f"{args.workload}-{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    clock = Clock(args.workload)
    loop = Loop(ops, out_dir, clock)
    gc.collect()
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        if not args.trace:
            run_for(loop, args.seconds)
        else:
            import layers
            run_for(loop, 0.5 * args.seconds)
            plain_rounds = loop.rounds
            tracer = layers.Tracer()
            tracer.install()
            try:
                t_traced = time.perf_counter()
                run_for(loop, 0.5 * args.seconds)
                t_done = time.perf_counter()
            finally:
                tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_check = time.perf_counter()
    problems, failed_ops = check_all(loop, refs, args.seed)
    detail["check_s"] = time.perf_counter() - t_check
    samples = round_samples(loop)
    if not args.trace:
        metrics, note = end_to_end(loop, setup_s, samples, rss_mb)
    else:
        metrics, note = per_layer(loop, tracer, plain_rounds, t_traced, t_done)
        detail["spans"] = tracer.spans()
    write_record(args, loop, metrics, note, problems, failed_ops, samples, detail)

    print(f"# {args.workload} seed {args.seed}: {note}")
    print(f"# ref_ms {clock.ref_ms():.4f} (median reference slice, "
          f"{len(clock.slice_dur)} slices); samples per round {samples}")
    for p in problems[:20]:
        print(f"# CHECK FAILED {p}")
    for i in sorted(failed_ops):
        print(f"# FAILED {ops[i].label}: {loop.errors.get(i, 'no verdict')}")
    print(json.dumps({"correct": not problems, "attempted": loop.rounds * len(ops),
                      "failed": loop.rounds * len(failed_ops), "metrics": metrics}))
    return 0


def write_record(args, loop: Loop, metrics, note, problems, failed_ops, samples,
                 detail) -> None:
    """Everything about one run, for later study: perfbench/out/*.json."""
    raw: dict[int, list[float]] = {i: [] for i in range(len(loop.ops))}
    for _, i, t0, t1 in loop.records:
        raw[i].append(round(1e3 * (t1 - t0), 4))
    scaled = loop.scaled_times(range(loop.rounds))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": loop.rounds, "ops_per_round": len(loop.ops),
        "ref_ms": loop.clock.ref_ms(), "samples_per_round": samples, "note": note,
        "problems": problems, "failed_ops": sorted(loop.ops[i].label for i in failed_ops),
        "metrics": metrics,
        "ops": [{"label": op.label, "params": op.params, "raw_ms": raw[i],
                 "scaled_ms": [round(v, 4) for v in scaled[i]]}
                for i, op in enumerate(loop.ops)],
        "records": loop.records,
        "slices": {"mid_s": loop.clock.slice_mid, "dur_s": loop.clock.slice_dur},
        **detail,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
