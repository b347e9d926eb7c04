"""Integer parameter selection for rational interpolation.

Fitting a rational function z = a/b (deg a <= k1, deg b <= k2) through at
least t of n anchor points with multiplicity s needs a bivariate polynomial
Q with z-degree cap M and (1, w)-weighted degree cap rho, w = k1 - k2.  The
caps must satisfy two inequalities:

    rho + M*k2 < t*s                      (every fit factors out of Q)
    U := (rho+1)(M+1) - (w/2)M(M+1) > N   (a nonzero Q exists)

with N = n*s*(s+1)/2 interpolation constraints.  For fixed s the admissible
M lie strictly between the roots M1 < M2 of a quadratic; an integer exists
iff floor(M1) + 1 < M2.  This module scans s exactly (no floating point in
any decision) and picks, at the smallest feasible s, the M minimizing the
work proxy M*U.  The closed-form choice used by Wu's parameterization is
provided for comparison.

All root comparisons go through :class:`QuadraticRoot`, an exact
(A + sign*sqrt(D))/B value with rational A, D, B.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

Rational = Union[int, Fraction]


class InfeasibleParams(Exception):
    """No (s, M, rho) satisfies the two bounds within the scan range."""


@dataclass(frozen=True)
class QuadraticRoot:
    """The exact real number (a + sign*sqrt(d)) / b, with d >= 0 and b > 0.

    Comparisons against rationals, floor and ceil are exact: they square out
    the radical instead of rounding through floats (a float seed is used
    only to start the floor search)."""

    a: Fraction
    d: Fraction
    b: Fraction
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "d", Fraction(self.d))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.b <= 0:
            raise ValueError("denominator must be positive")
        if self.d < 0:
            raise ValueError("radicand must be nonnegative")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")

    def _cmp(self, q: Rational) -> int:
        """Sign of (self - q), exactly."""
        r = Fraction(q) * self.b - self.a  # compare sign*sqrt(d) with r
        rr = r * r
        if self.sign > 0:
            if r < 0:
                return 1
            return (self.d > rr) - (self.d < rr)
        if r > 0:
            return -1
        return (rr > self.d) - (rr < self.d)

    def __float__(self) -> float:
        return (float(self.a) + self.sign * math.sqrt(float(self.d))) / float(self.b)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self._cmp(other) == 0
        if isinstance(other, QuadraticRoot):
            diff = self.as_fraction(), other.as_fraction()
            if diff[0] is not None and diff[1] is not None:
                return diff[0] == diff[1]
            return (self.a, self.d, self.b, self.sign) == (
                other.a, other.d, other.b, other.sign)
        return NotImplemented

    def __lt__(self, other: Rational) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: Rational) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Rational) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Rational) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self):
        f = self.as_fraction()
        return hash(f) if f is not None else hash((self.a, self.d, self.b, self.sign))

    def floor(self) -> int:
        est = math.floor(float(self))
        while self._cmp(est + 1) >= 0:
            est += 1
        while self._cmp(est) < 0:
            est -= 1
        return est

    def ceil(self) -> int:
        f = self.floor()
        return f if self._cmp(f) == 0 else f + 1

    def as_fraction(self) -> Fraction | None:
        """Exact rational value when the radicand is a perfect square."""
        p, q = self.d.numerator, self.d.denominator
        rp, rq = isqrt(p), isqrt(q)
        if rp * rp != p or rq * rq != q:
            return None
        return (self.a + self.sign * Fraction(rp, rq)) / self.b

    def __repr__(self):
        f = self.as_fraction()
        if f is not None:
            return f"QuadraticRoot({f})"
        s = "+" if self.sign > 0 else "-"
        return f"QuadraticRoot(({self.a} {s} sqrt({self.d}))/{self.b})"


@dataclass(frozen=True)
class InterpParams:
    """One admissible cap choice (s, M, rho) with its bookkeeping."""

    t: int
    k1: int
    k2: int
    s: int
    M: int
    rho: int
    N: int
    U: int
    source: str = "optimized"

    @property
    def w(self) -> int:
        return self.k1 - self.k2

    @property
    def cost(self) -> int:
        return self.M * self.U

    def validate(self) -> None:
        if self.rho + self.M * self.k2 >= self.t * self.s:
            raise InfeasibleParams(
                f"rho={self.rho}, M={self.M}: factor bound fails at s={self.s}")
        u = (self.rho + 1) * (self.M + 1) - self.w * self.M * (self.M + 1) // 2
        if u != self.U:
            raise InfeasibleParams(f"inconsistent U: stored {self.U}, formula {u}")
        if self.U <= self.N:
            raise InfeasibleParams(
                f"U={self.U} <= N={self.N}: no nonzero interpolant guaranteed")


@dataclass(frozen=True)
class MultiplicityScan:
    """Feasibility diagnosis of one multiplicity s."""

    s: int
    N: int
    disc: Fraction
    M1: QuadraticRoot | None
    M2: QuadraticRoot | None
    m_low: int | None
    m_high: int | None
    feasible: bool


@dataclass(frozen=True)
class OptimizeResult:
    """The scan of one shape (n, k, t, k1, k2): every multiplicity tried,
    the admissible rows at the first feasible one, and the cheapest row."""

    n: int
    k: int
    t: int
    k1: int
    k2: int
    s_low: int
    s_high: int
    scan: tuple[MultiplicityScan, ...]
    rows: tuple[InterpParams, ...]
    best: InterpParams

    @property
    def s_min(self) -> int:
        return self.best.s


def _check_shape(n: int, k: int, t: int, k1: int, k2: int) -> Fraction:
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    if k1 < 0 or k2 < 0:
        raise ValueError("degree bounds must be nonnegative")
    t0 = Fraction(n - k + 1, 2)
    if Fraction(k1 + k2, 2) != t - t0:
        raise ValueError(
            f"degree bounds k1={k1}, k2={k2} do not match radius t={t}: "
            f"need k1 + k2 = 2t - (n - k + 1) = {2 * t - (n - k + 1)}")
    return t0


def multiplicity_scan(n: int, k: int, t: int, k1: int, k2: int,
                      s: int) -> MultiplicityScan:
    """Exact feasibility test of multiplicity s: real roots M1 < M2 of the
    cap quadratic and whether an integer lies strictly between them."""
    t0 = _check_shape(n, k, t, k1, k2)
    k0 = t - t0
    if k0 <= 0:
        raise ValueError("radius within half the minimum distance; "
                         "the cap quadratic degenerates")
    N = n * s * (s + 1) // 2
    A = t * s - k0
    disc = A * A - 4 * (N - t * s) * k0
    if disc < 0:
        return MultiplicityScan(s, N, disc, None, None, None, None, False)
    M1 = QuadraticRoot(A, disc, 2 * k0, -1)
    M2 = QuadraticRoot(A, disc, 2 * k0, +1)
    m_low = M1.floor() + 1
    m_high = M2.ceil() - 1
    feasible = M2 > m_low
    return MultiplicityScan(s, N, disc, M1, M2, m_low, m_high, feasible)


def _row(n: int, t: int, k1: int, k2: int, s: int, N: int, M: int) -> InterpParams:
    w = k1 - k2
    rho = math.floor(Fraction(N, M + 1) + Fraction(w * M, 2) - 1) + 1
    U = (rho + 1) * (M + 1) - w * M * (M + 1) // 2
    params = InterpParams(t=t, k1=k1, k2=k2, s=s, M=M, rho=rho, N=N, U=U)
    params.validate()
    return params


@functools.lru_cache
def optimize_params(n: int, k: int, t: int, k1: int, k2: int) -> OptimizeResult:
    """Scan multiplicities from the exact lower bound up; at the first
    feasible s return every admissible M with its rho and U, and the row
    minimizing M*U (smallest M on ties).

    The result is a pure function of the shape and immutable, so it is
    cached per shape: the decoders ask for the same few shapes word after
    word."""
    t0 = _check_shape(n, k, t, k1, k2)
    k0 = t - t0
    if k0 <= 0:
        raise ValueError("radius within half the minimum distance; "
                         "use the single-multiplicity parameters")
    d = n - k + 1
    den = Fraction(t * t - 2 * n * k0)
    if den <= 0:
        raise InfeasibleParams(
            f"radius t={t} is at or beyond the feasible curve-fitting bound "
            f"for ({n},{k})")
    P = n * (n - d)
    s_low = QuadraticRoot(k0 * (n - t), k0 * k0 * P, den, +1).floor() + 1
    s_high = math.floor(Fraction(t * (d - t)) / den) + 1
    scans: list[MultiplicityScan] = []
    for s in range(max(s_low, 1), s_high + 1):
        scan = multiplicity_scan(n, k, t, k1, k2, s)
        scans.append(scan)
        if not scan.feasible:
            continue
        rows = tuple(_row(n, t, k1, k2, s, scan.N, M)
                     for M in range(scan.m_low, scan.m_high + 1))
        best = min(rows, key=lambda p: (p.cost, p.M))
        return OptimizeResult(n, k, t, k1, k2, s_low, s_high, tuple(scans),
                              rows, best)
    raise InfeasibleParams(
        f"no multiplicity in [{max(s_low, 1)}, {s_high}] admits an integer "
        f"z-degree cap for t={t} on ({n},{k})")


def wu_params(n: int, k: int, t: int, k1: int, k2: int) -> InterpParams:
    """The closed-form parameterization: s from the Johnson-type bound, then
    M = floor(s*t / (2t - d)) and rho = t*s - M*k2 - 1."""
    d = n - k + 1
    den2 = 2 * t - d
    if den2 <= 0:
        raise InfeasibleParams(f"radius t={t} within half distance; s undefined")
    denJ = t * t - n * den2
    if denJ <= 0:
        raise InfeasibleParams(
            f"radius t={t} at or beyond the curve-fitting bound for ({n},{k})")
    s = math.floor(Fraction(t * (d - t), denJ))
    if s < 1:
        raise InfeasibleParams(f"closed-form multiplicity s={s} < 1")
    M = math.floor(Fraction(s * t, den2))
    rho = t * s - M * k2 - 1
    w = k1 - k2
    N = n * s * (s + 1) // 2
    U = (rho + 1) * (M + 1) - w * M * (M + 1) // 2
    params = InterpParams(t=t, k1=k1, k2=k2, s=s, M=M, rho=rho, N=N, U=U,
                          source="wu")
    params.validate()
    return params


def single_multiplicity_params(n: int, t: int, k1: int, k2: int) -> InterpParams:
    """Caps for the boundary radius t equal to half the minimum distance
    (k1 = k2 = 0): multiplicity 1, constant fits only."""
    if k1 != 0 or k2 != 0:
        raise ValueError("single-multiplicity caps require k1 = k2 = 0")
    if t < 1:
        raise ValueError("radius must be positive")
    M = n // t
    params = InterpParams(t=t, k1=0, k2=0, s=1, M=M, rho=t - 1, N=n,
                          U=t * (M + 1), source="single")
    params.validate()
    return params
