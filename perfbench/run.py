#!/usr/bin/env python3
"""Seeded decode benchmark for rsmld: one decoder on one code per workload.

Run from the repository root:

    python3 perfbench/run.py --workload list-31.division --seed 1 --seconds 5 --trace 0

A workload is `<cell>.<decoder>`.  The cell fixes the code and the error
weight; the seed fixes the received words, so every decoder of a cell sees
the same words for the same seed.  One caller decodes the words one after
another (a closed loop) until the timed decode calls add up to `--seconds`.
Every output is checked outside the timed region.

`--trace 0` prints the end-to-end metrics.  `--trace 1` decodes a fixed
number of words twice, untraced and then traced (see tracing.py), and prints
the per-layer metrics per word; their counters repeat exactly for a seed.
The last line of standard output is the JSON result; the line before it
records the run and its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import zlib
from dataclasses import dataclass
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Cell:
    field: tuple[int, int]      # Field(p, m)
    n: int
    k: int
    weights: tuple[int, int]    # injected error weight, uniform in [lo, hi]
    decoders: tuple[str, ...]
    setup_batch: int            # builds per timed set-up sample, ~1 ms or more
    unique: bool = False        # weights within the classical radius
    oracle: bool = False        # q**k fits the oracle: it is the ground truth


CELLS = {
    # Classical radius 16: every word stops at level 0 with the single
    # candidate (0, 1), so basis, re-encoding and encoding do the work.
    "unique-255": Cell((2, 8), 255, 223, (0, 16),
                       ("division", "reencoded", "rational"), 10, unique=True),
    # Classical radius 8 < 9 <= Johnson radius 10: division enumerates about
    # 930 candidates per word, rational makes one small fit.  The only
    # prime-field cell.
    "list-31": Cell((31, 1), 31, 15, (9, 9),
                    ("division", "reencoded", "rational"), 500),
    # Rational's large fit (s=7, M=15, N=420); 16**5 codewords fit the oracle.
    "list-15-t7": Cell((2, 4), 15, 5, (7, 7), ("rational", "oracle"), 1,
                       oracle=True),
}

# Decodes per second on the reference machine (see README.md).  They only
# size the fixed word list of a traced run, never a measurement.
NOMINAL_RATE = {
    "unique-255.division": 11.0,
    "unique-255.reencoded": 12.0,
    "unique-255.rational": 11.0,
    "list-31.division": 9.0,
    "list-31.reencoded": 7.5,
    "list-31.rational": 60.0,
    "list-15-t7.rational": 0.45,
    "list-15-t7.oracle": 16.0,
}
WORKLOADS = tuple(NOMINAL_RATE)

# The slowest workload's per-word cost varies about 45% with the word, so a
# run decodes at least this many words even past --seconds.
MIN_WORDS = {"list-15-t7.rational": 24}
CROSS_CHECK_WORDS = 2   # words per run also decoded by the cell's other decoders
SETUP_SAMPLES = 9

END_TO_END = [
    ("words_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit, how it is read from the tracer); "ms" spans are per word.
PER_LAYER = [
    ("groebner.basis_ms", "ms", ("time", "groebner.basis")),
    ("groebner.basis_calls", "count", ("calls", "groebner.basis")),
    ("division.reencode_ms", "ms", ("time", "division.reencode")),
    ("division.enumerate_ms", "ms", ("time", "division.enumerate")),
    ("division.combine_ms", "ms", ("time", "division.combine")),
    ("division.divide_ms", "ms", ("time", "division.divide")),
    ("division.candidates", "count", ("count", "division.candidates")),
    ("division.divisibility_tests", "count", ("calls", "division.divide")),
    ("division.exact_divisions", "count", ("count", "division.exact_divisions")),
    ("division.search_level", "level", None),
    ("division.useful_ratio", "ratio", None),
    ("bivar.koetter_ms", "ms", ("time", "bivar.koetter")),
    ("bivar.constraints", "count", ("count", "bivar.constraints")),
    ("bivar.max_s", "count", ("max", "bivar.max_s")),
    ("bivar.max_M", "count", ("max", "bivar.max_M")),
    ("rational.factorize_ms", "ms", ("self_time", "rational.factorize")),
    ("polys.divisors_ms", "ms", ("time", "polys.divisors")),
    ("polys.divisor_candidates", "count", ("count", "polys.divisor_candidates")),
    ("rational.factor_pairs", "count", ("count", "rational.factor_pairs")),
    ("ratparams.optimize_ms", "ms", ("time", "ratparams.optimize")),
    ("ratparams.fits", "count", ("calls", "ratparams.optimize")),
    ("rational.anchors_ms", "ms", ("time", "rational.anchors")),
    ("code.verify_ms", "ms", ("time", "code.verify")),
    ("code.verifications", "count", ("count", "code.verifications")),
    ("code.verified_hits", "count", ("count", "code.verified_hits")),
    ("code.oracle_ms", "ms", ("time", "code.oracle")),
    ("code.oracle_table_s", "s", None),
    ("unattributed_ms", "ms", None),
    ("trace_overhead_ratio", "ratio", None),
    ("trace.words", "count", None),
]
# Per-layer metrics that must repeat exactly for a seed.
COUNTERS = [name for name, unit, _ in PER_LAYER
            if unit in ("count", "level") or name == "division.useful_ratio"]


def import_rsmld():
    """The rsmld package of this checkout, never an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import rsmld
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import rsmld from {src}: {exc}")
    if not os.path.abspath(rsmld.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: rsmld imported from {rsmld.__file__}, not {src}")
    return rsmld


def decoder(rsmld, name):
    return {
        "division": rsmld.decode_minimal,
        "reencoded": rsmld.decode_minimal_reencoded,
        "rational": rsmld.decode_rational,
        "oracle": lambda code, word: code.ml_oracle(word),
    }[name]


# -- inputs ----------------------------------------------------------------


class SplitMix64:
    """The benchmark's own generator, so edits to rsmld cannot move inputs."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform in [0, n), by rejection."""
        limit = (1 << 64) - (1 << 64) % n
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


@dataclass
class Sample:
    sent: object        # message Polynomial
    weight: int         # injected error weight
    received: object    # Word


def samples(rsmld, code, cell_name: str, cell: Cell, seed: int):
    """Endless seeded stream of received words for one cell."""
    rng = SplitMix64((seed << 32) ^ zlib.crc32(cell_name.encode()))
    q, n, k = code.field.q, code.n, code.k
    lo, hi = cell.weights
    while True:
        sent = code.message_poly([rng.below(q) for _ in range(k)])
        weight = lo + rng.below(hi - lo + 1)
        symbols = list(code.encode(sent).symbols)
        positions = list(range(n))
        for i in range(weight):  # partial Fisher-Yates
            j = i + rng.below(n - i)
            positions[i], positions[j] = positions[j], positions[i]
            p = positions[i]
            symbols[p] = (symbols[p] + 1 + rng.below(q - 1)) % q
        yield Sample(sent, weight, rsmld.Word(code, tuple(symbols)))


# -- host-speed clock -------------------------------------------------------

PYTHON_KERNEL_ITERS = 6000   # about 1 ms on the reference machine (README.md)
NUMPY_KERNEL_REF_MS = 2.5    # numpy kernel / Python kernel time, median there


def python_kernel_s() -> float:
    """Wall seconds of a fixed pure-Python loop, like the decoders' work."""
    t0 = perf_counter()
    acc, table, out = 1, {}, []
    for i in range(PYTHON_KERNEL_ITERS):
        acc = (acc * 31 + i) % 65521
        table[i & 63] = acc
        out.append(table.get(acc & 63, i))
    return perf_counter() - t0


def numpy_kernel():
    """A kernel timing a fixed numpy table scan, like the oracle's work."""
    import numpy as np
    rows = np.arange(1 << 20, dtype=np.int64) * 2654435761 % 16
    table = rows.astype(np.int8).reshape(-1, 16)
    word = np.arange(16, dtype=np.int8)

    def kernel_s() -> float:
        t0 = perf_counter()
        int(np.count_nonzero(table != word, axis=1).min())
        return perf_counter() - t0
    return kernel_s


class Clock:
    """Times calls in reference seconds as well as wall seconds.

    A shared host's speed drifts by up to 1.8x in phases of 10-20 s, which
    swamps any change to the program.  So each timed call is divided by a
    kernel's time measured just before and just after it: one run of the
    pure-Python kernel is one reference millisecond, one run of the numpy
    kernel `kernel_ref_ms` of them (their median ratio on the reference
    machine).  The kernels are the benchmark's own code, so a change to rsmld
    moves reference time as it moves wall time.  A kernel should do the same
    kind of work as the timed call: the pure-Python kernel does not track
    the host's memory contention, the numpy one does.
    """

    def __init__(self, kernel_s=python_kernel_s, kernel_ref_ms=1.0):
        self.kernel_s = kernel_s
        self.kernel_ref_ms = kernel_ref_ms
        self.before = kernel_s()
        self.kernels = [self.before]

    def time(self, fn, *args):
        """(result, reference seconds, wall seconds) of fn(*args)."""
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        after = self.kernel_s()
        self.kernels.append(after)
        ref = 1e-3 * self.kernel_ref_ms * wall / ((self.before + after) / 2)
        self.before = after
        return result, ref, wall

    def ref_ms_per_wall_s(self) -> float:
        """Scale from wall seconds to reference ms at this run's median speed."""
        return self.kernel_ref_ms / statistics.median(self.kernels)


def clocks(cell: Cell, name: str) -> tuple[Clock, Clock]:
    """Clocks for set-up (numpy when it builds the oracle table) and decode."""
    if not cell.oracle:
        return Clock(), Clock()
    numpy_clock = Clock(numpy_kernel(), NUMPY_KERNEL_REF_MS)
    return numpy_clock, numpy_clock if name == "oracle" else Clock()


# -- set-up ----------------------------------------------------------------


def build(rsmld, cell: Cell):
    code = rsmld.RSCode(rsmld.Field(*cell.field), cell.n, cell.k)
    if cell.oracle:
        code._codeword_table()
    return code


def build_many(rsmld, cell: Cell):
    for _ in range(cell.setup_batch):
        code = build(rsmld, cell)
    return code


def timed_setup(rsmld, cell: Cell, clock: Clock):
    """Median seconds of one set-up, in reference and in wall seconds, over
    several samples, and the last code built."""
    ref, wall = [], []
    for _ in range(SETUP_SAMPLES):
        code, ref_s, wall_s = clock.time(build_many, rsmld, cell)
        ref.append(ref_s / cell.setup_batch)
        wall.append(wall_s / cell.setup_batch)
    return statistics.median(ref), statistics.median(wall), code


# -- checks (never timed) --------------------------------------------------


def check(cell: Cell, code, sample: Sample, out, references) -> str | None:
    """Why the outcome is wrong, or None when it passes every check."""
    received = sample.received.symbols
    if not out.messages:
        return "empty message list"
    if out.min_distance > sample.weight:
        return f"min_distance {out.min_distance} > injected {sample.weight}"
    for m in out.messages:
        if m.degree() >= code.k:
            return f"message degree {m.degree()} >= k"
        if m == sample.sent:  # its codeword is at the injected weight
            dist = sample.weight
        else:
            dist = sum(a != b for a, b in zip(code.encode(m).symbols, received))
        if dist != out.min_distance:
            return f"message at distance {dist}, not {out.min_distance}"
    if out.min_distance == sample.weight and sample.sent not in out.messages:
        return "sent message missing at the injected weight"
    if cell.unique and tuple(out.messages) != (sample.sent,):
        return "unique decoding did not return exactly the sent message"
    for name, ref in references:
        if isinstance(ref, Exception):
            return f"reference {name} raised {ref!r}"
        if out != ref:
            return f"disagrees with {name}: {out} vs {ref}"
    return None


def references(rsmld, cell: Cell, code, name: str, index: int, sample: Sample):
    """(decoder, outcome) pairs the outcome must equal: the oracle on every
    word where it fits, else the cell's other decoders on the first words."""
    if cell.oracle:
        others = [] if name == "oracle" else ["oracle"]
    elif index < CROSS_CHECK_WORDS:
        others = [o for o in cell.decoders if o != name]
    else:
        others = []
    out = []
    for other in others:
        try:
            out.append((other, decoder(rsmld, other)(code, sample.received)))
        except Exception as exc:  # a reference that raises fails the check
            out.append((other, exc))
    return out


class Ledger:
    """Attempted and failed decodes, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, index: int, reason: str | None) -> bool:
        self.attempted += 1
        if reason is None:
            return True
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"word {index}: {reason}")
        return False

    def judge(self, rsmld, cell, code, name, index, sample, out) -> bool:
        if isinstance(out, Exception):
            return self.record(index, f"raised {out!r}")
        refs = references(rsmld, cell, code, name, index, sample)
        return self.record(index, check(cell, code, sample, out, refs))


def call(decode, code, word):
    """Decode once; an exception is returned as the outcome."""
    try:
        return decode(code, word)
    except Exception as exc:  # every raise counts as a failed decode
        return exc


# -- runs ------------------------------------------------------------------


def end_to_end(rsmld, workload: str, seed: int, seconds: float, ledger: Ledger):
    cell_name, name = workload.split(".")
    cell = CELLS[cell_name]
    setup_clock, clock = clocks(cell, name)
    setup_s, setup_wall_s, code = timed_setup(rsmld, cell, setup_clock)
    decode = decoder(rsmld, name)
    stream = samples(rsmld, code, cell_name, cell, seed)
    wall_total, ref_total, ok_ref, ok_wall, index = 0.0, 0.0, [], [], 0
    while wall_total < seconds or index < MIN_WORDS.get(workload, 1):
        sample = next(stream)
        out, ref, wall = clock.time(call, decode, code, sample.received)
        wall_total += wall
        ref_total += ref
        if ledger.judge(rsmld, cell, code, name, index, sample, out):
            ok_ref.append(ref)
            ok_wall.append(wall)
        index += 1
    ok = len(ok_ref)
    metrics = {
        "words_per_s": ok / ref_total,
        "latency_p50_ms": 1000 * statistics.median(ok_ref) if ok else 0.0,
        "ok_ratio": ok / ledger.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {"words_per_s": ok / wall_total,
            "latency_p50_ms": 1000 * statistics.median(ok_wall) if ok else 0.0,
            "setup_s": setup_wall_s,
            "kernel_ms_p50": 1000 * statistics.median(clock.kernels)}
    return metrics, {"words": index, "latency_samples": ok, "wall": wall}


def traced(rsmld, workload: str, seed: int, seconds: float, ledger: Ledger):
    from tracing import Tracer

    cell_name, name = workload.split(".")
    cell = CELLS[cell_name]
    setup_clock, clock = clocks(cell, name)
    setup_trace = Tracer()
    setup_trace.install(rsmld)
    try:
        code, setup_ref_s, setup_wall_s = setup_clock.time(build, rsmld, cell)
    finally:
        setup_trace.uninstall()
    decode = decoder(rsmld, name)
    stream = samples(rsmld, code, cell_name, cell, seed)
    count = max(1, round(seconds * NOMINAL_RATE[workload] / 2))
    words = [next(stream) for _ in range(count)]

    plain, untraced_ref = [], 0.0
    for s in words:
        out, ref, _ = clock.time(call, decode, code, s.received)
        plain.append(out)
        untraced_ref += ref

    tracer = Tracer()

    def traced_decode(c, w):
        return tracer.decode(decode, c, w)

    outs, traced_ref = [], 0.0
    tracer.install(rsmld)
    try:
        for s in words:
            out, ref, _ = clock.time(call, traced_decode, code, s.received)
            outs.append(out)
            traced_ref += ref
    finally:
        tracer.uninstall()

    levels = 0
    for i, (sample, a, b) in enumerate(zip(words, plain, outs)):
        ledger.judge(rsmld, cell, code, name, i, sample, a)
        if not isinstance(b, Exception) and b != a:
            b = ValueError(f"traced outcome {b} differs from untraced {a}")
        ledger.judge(rsmld, cell, code, name, i, sample, b)
        if not isinstance(b, Exception):
            levels += b.search_level or 0

    # Spans are wall seconds; scale them to reference ms at the run's speed.
    ms = clock.ref_ms_per_wall_s() / count
    per_word = {"time": ms, "self_time": ms, "calls": 1 / count,
                "count": 1 / count, "max": 1}
    metrics = {}
    for metric, _, source in PER_LAYER:
        if source is not None:
            kind, key = source
            metrics[metric] = getattr(tracer, kind)[key] * per_word[kind]
    candidates = tracer.count["division.candidates"]
    metrics.update({
        "division.search_level": levels / count,
        "division.useful_ratio": (tracer.count["code.verified_hits"] / candidates
                                  if candidates else 0.0),
        "code.oracle_table_s": (setup_trace.time["code.oracle_table"]
                                * setup_ref_s / setup_wall_s),
        "unattributed_ms": (tracer.decode_s - tracer.top) * ms,
        "trace_overhead_ratio": traced_ref / untraced_ref - 1,
        "trace.words": count,
    })
    return metrics, {"words": count, "untraced_ref_s": untraced_ref,
                     "traced_ref_s": traced_ref,
                     "kernel_ms_p50": 1000 * statistics.median(clock.kernels)}


# -- environment -----------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            "git_commit": git_commit(), "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    rsmld = import_rsmld()

    ledger = Ledger()
    run = traced if args.trace else end_to_end
    values, detail = run(rsmld, args.workload, args.seed, args.seconds, ledger)
    units = {name: unit for name, unit, *_ in (PER_LAYER if args.trace
                                                 else END_TO_END)}
    for reason in ledger.reasons:
        print(f"perfbench: failed check: {reason}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "trace": args.trace, **detail,
                      "env": environment(args.seed)}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
