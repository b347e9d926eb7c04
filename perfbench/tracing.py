"""Per-layer spans and work counters for the traced benchmark run.

The program is not edited.  `Tracer.install` replaces public functions at the
module attributes where the decoders look them up at call time, and
`Tracer.uninstall` puts the originals back.  Each wrapper records a span
(inclusive and self time) and, where a layer does countable work, a counter
read from the call's arguments or result.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Spans and counters of one traced pass; spans live in memory only."""

    def __init__(self):
        self.time = defaultdict(float)       # inclusive seconds per span name
        self.self_time = defaultdict(float)  # minus time covered by child spans
        self.calls = Counter()
        self.count = Counter()
        self.max = Counter()
        self.top = 0.0          # seconds covered by spans with no parent span
        self.decode_s = 0.0     # seconds inside traced decode calls
        self._stack: list[float] = []  # child seconds of each open span
        self._distances: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _close(self, name: str, dt: float) -> None:
        child = self._stack.pop()
        self.time[name] += dt
        self.self_time[name] += dt - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += dt
        else:
            self.top += dt

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, perf_counter() - t0)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _generator_span(self, name, fn, counter):
        """Time each next() of a generator as its own span."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._close(name, perf_counter() - t0)
                    return
                self._close(name, perf_counter() - t0)
                self.count[counter] += 1
                yield item
        return wrapper

    def decode(self, decode, code, word):
        """Run one decode with its verified-hit count attributed to it."""
        self._distances = []
        t0 = perf_counter()
        try:
            out = decode(code, word)
        finally:
            self.decode_s += perf_counter() - t0
        self.count["code.verified_hits"] += sum(
            d == out.min_distance for d in self._distances)
        return out

    # -- counters read at layer boundaries --------------------------------

    def _divided(self, args, kwargs, result):
        if result is not None:
            self.count["division.exact_divisions"] += 1

    def _verified(self, args, kwargs, result):
        self.count["code.verifications"] += 1
        self._distances.append(result)

    def _koetter_args(self, fn):
        sig = inspect.signature(fn)

        def after(args, kwargs, result):
            a = sig.bind(*args, **kwargs).arguments
            s = a["s"]
            self.count["bivar.constraints"] += len(a["anchors"]) * s * (s + 1) // 2
            self.max["bivar.max_s"] = max(self.max["bivar.max_s"], s)
            self.max["bivar.max_M"] = max(self.max["bivar.max_M"], a["M"])
        return after

    def _divisor_args(self, fn):
        sig = inspect.signature(fn)

        def after(args, kwargs, result):
            a = sig.bind(*args, **kwargs).arguments
            f = a["f"]
            q = f.field.q
            dmax = min(a["dmax"], f.degree())
            self.count["polys.divisor_candidates"] += sum(
                q ** d for d in range(1, dmax + 1))
        return after

    def _factor_pairs(self, args, kwargs, result):
        self.count["rational.factor_pairs"] += len(result)

    # -- install / uninstall ----------------------------------------------

    def install(self, rsmld) -> None:
        """Wrap every traced layer entry point; undo with `uninstall`."""
        division, rational = rsmld.division, rsmld.rational
        code_cls = rsmld.RSCode
        plan = [
            (division, "mgb_iterative", "groebner.basis", None),
            (division, "mgb_iterative_reencoded", "groebner.basis", None),
            (rational, "mgb_iterative", "groebner.basis", None),
            (division, "reencode", "division.reencode", None),
            (division, "combine", "division.combine", None),
            (rational, "combine", "division.combine", None),
            (division, "extract_message", "division.divide", self._divided),
            (rational, "extract_message", "division.divide", self._divided),
            (division, "hamming_distance", "code.verify", self._verified),
            (rational, "hamming_distance", "code.verify", self._verified),
            (code_cls, "encode", "code.verify", None),
            (rational, "anchor_points", "rational.anchors", None),
            (rational, "optimize_params", "ratparams.optimize", None),
            (rational, "single_multiplicity_params", "ratparams.optimize", None),
            (rational, "koetter_interpolate", "bivar.koetter",
             self._koetter_args(rational.koetter_interpolate)),
            (rational, "rational_factorize", "rational.factorize",
             self._factor_pairs),
            (rational, "bounded_monic_divisors", "polys.divisors",
             self._divisor_args(rational.bounded_monic_divisors)),
            (code_cls, "ml_oracle", "code.oracle", None),
            (code_cls, "_codeword_table", "code.oracle_table", None),
        ]
        for owner, attr, name, after in plan:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._span(name, original, after))
        original = division.combinations_at_level
        self._patches.append((division, "combinations_at_level", original))
        division.combinations_at_level = self._generator_span(
            "division.enumerate", original, "division.candidates")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
