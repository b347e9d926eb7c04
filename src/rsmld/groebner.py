"""Minimal Groebner bases of the interpolation module in F[x]^2.

A received word r for an (n, k) Reed-Solomon code determines the module

    M(r) = {(f1, f2) : f1(x_i) + r_i * f2(x_i) = 0 for all points x_i}
         = span{(Pi, 0), (L, -1)}

where Pi is the vanishing polynomial of the evaluation points and L is the
Lagrange interpolant of r.  The decoders search over a minimal Groebner
basis {g1, g2} of M(r) under the (0, k-1)-weighted term-over-position
order; the weighted degrees ell1, ell2 of the two elements sum to
n + k - 1 and the leading positions are 1 and 2 respectively (either
degree may be the larger one).

Two constructions of M(r)'s basis are provided: a reduction of the
generators (Pi, 0), (L, -1), the paper's, and a point-by-point iteration,
its test reference, plus re-encoded variants of both over a shifted word's
n - k + 1 points (unweighted order), the paper's re-encoding, kept as the
reference that the tests hold the decoders' basis to.

The decoders read only the ell's and the second components g1.f2, g2.f2,
and those follow from the n - k syndromes S = r . H^T alone, with no
interpolant: every decoder takes them from `syndrome_pair`.  For
(f1, f2) in M(r) of weighted degree ell, sum_i v_i x_i^j f1(x_i) = 0 for
j <= n - 2 - ell, with v_i = 1 / Pi'(x_i), and f1(x_i) = -r_i f2(x_i); so
sum_l f2_l S_(j+l) = 0, and f2 lies in the key-equation module

    N = {(omega, f2) : omega = f2 * S~ mod x^(n-k)},
    S~ = sum_j S_j x^(n-k-1-j),

with deg omega = deg f1 - k and lc omega = -lc f1 (Fitzpatrick, "On the
key equation", IEEE T-IT 41(5), 1995).  Under the (1, 0)-weighted order
N's reduced basis, from (x^(n-k), 0) and (S~, 1), has M(r)'s ell's less
k - 1 and M(r)'s g1.f2 up to sign.  Its g2.f2 may be M(r)'s plus c * g1.f2
with deg c <= ell2 - ell1, since omega's low coefficients are not f1's:
a level's pairs (a, b), deg a <= ell2 - ell1 + j, then have the same
f2's, as a + b*c runs over the same a's.  N stands in for the paper's
re-encoded module too: the short basis of the re-encoded word
y = r - encode(shift) over n - k + 1 points (`mgb_euclid_reencoded`) has
N's ell's, N's g1.f2 times a nonzero scalar, and N's g2.f2 plus c * g1.f2
with the same bound on deg c; the tests check all three.

`syndrome_pair` builds N's reduced basis in one pass of Berlekamp-Massey
over S (Massey, "Shift-register synthesis and BCH decoding", IEEE T-IT
15(1), 1969), which works on the locators f2 alone: its final connection
polynomial, reversed, is g2.f2, and the one before its last length change
is g1.f2 up to scale; both omegas are then one product with the Toeplitz
matrix of S~.  It returns the pair that the reduction of (x^(n-k), 0),
(S~, 1) returns, which the tests keep as its reference.

The iteration is Koetter's update (`bivar.koetter_candidates`) at
multiplicity s = 1 and z-degree M = 1: Q = f1(x) + z*f2(x) passes through
(x_i, r_i) exactly when (f1, f2) lies in M(r), and the two final
candidates, led by z^0 and z^1 under (1, k-1) weights, are a minimal
Groebner basis under the (0, k-1) order (McEliece, IPN PR 42-153, 2003;
Lee & O'Sullivan, JSC 43, 2008).

The other four constructions (`mgb_euclid`, `mgb_iterative` and the
re-encoded variants of both) hand their two rows (f1, f2), lists of ints
low to high, to one reduction built on one row operation: subtract
c * x^s times one row from the other so that a chosen top coefficient
cancels (Mulders & Storjohann, JSC 35, 2003).  While both rows lead in
the same position it cancels the higher lead; on (Pi, 0), (L, -1) that is
the Euclidean remainder sequence on (Pi, L), one quotient term at a time,
and Koetter's rows, a minimal basis already, need no such step.  The same
operation then inter-reduces the monic rows into the unique reduced basis
(each element fully reduced by the other), so the constructions of one
module return identical objects; only that final pair is built as
`Polynomial`s.  The row operation is the field's `Field.axpy`, and
Berlekamp-Massey's discrepancy its `Field.inner`, so nothing here depends
on how the field multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bivar import ProjectivePoint, koetter_candidates
from .code import RSCode, Word
from .fields import Field
from .polys import Polynomial, vanishing_poly


@dataclass(frozen=True)
class WeightedOrder:
    """A weighted term-over-position monomial order on F[x]^2.

    A monomial is (exponent, position) with position in {1, 2}; its weighted
    degree is exponent + weights[position-1].  Monomials compare by weighted
    degree first, with ties broken toward the higher position.
    """

    weights: tuple[int, int]

    def key(self, exponent: int, position: int) -> tuple[int, int]:
        if position not in (1, 2):
            raise ValueError("position must be 1 or 2")
        return (exponent + self.weights[position - 1], position)

    def wdeg(self, exponent: int, position: int) -> int:
        return exponent + self.weights[position - 1]


class ModuleVector:
    """An element (f1, f2) of F[x]^2."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1: Polynomial, f2: Polynomial):
        if f1.field != f2.field:
            raise ValueError("components over different fields")
        self.f1 = f1
        self.f2 = f2

    @property
    def field(self):
        return self.f1.field

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModuleVector)
                and self.f1 == other.f1 and self.f2 == other.f2)

    def __hash__(self):
        return hash((self.f1, self.f2))

    def __repr__(self):
        return f"({self.f1}, {self.f2})"


class Lead(NamedTuple):
    """Leading monomial data of a module vector under some order."""

    position: int
    exponent: int
    wdeg: int
    coeff: int


def _lead(order: WeightedOrder, f1, f2) -> Lead:
    """Leading monomial of (f1, f2), given as trimmed coefficient lists."""
    best = None
    for pos, comp in ((1, f1), (2, f2)):
        if len(comp):
            e = len(comp) - 1
            k = order.key(e, pos)
            if best is None or k > best[0]:
                best = (k, pos, e, int(comp[-1]))
    if best is None:
        raise ValueError("the zero vector has no leading monomial")
    _, pos, e, lc = best
    return Lead(pos, e, order.wdeg(e, pos), lc)


def leading(order: WeightedOrder, v: ModuleVector) -> Lead:
    """Leading (largest) monomial of v, its weighted degree and coefficient."""
    return _lead(order, v.f1.coeffs, v.f2.coeffs)


@dataclass(frozen=True)
class GroebnerPair:
    """A reduced minimal Groebner basis {g1, g2} of a rank-2 module.

    g1 leads in position 1 with weighted degree ell1, g2 in position 2 with
    weighted degree ell2.  Both are monic in their leading coefficient and
    each is fully reduced modulo the other, so the pair is unique for the
    module and order.
    """

    g1: ModuleVector
    g2: ModuleVector
    ell1: int
    ell2: int
    order: WeightedOrder

    def to_json_dict(self) -> dict:
        return {
            "order": {"weights": list(self.order.weights), "kind": "top"},
            "g1": {"f1": list(self.g1.f1.coeffs), "f2": list(self.g1.f2.coeffs),
                   "wdeg": self.ell1},
            "g2": {"f1": list(self.g2.f1.coeffs), "f2": list(self.g2.f2.coeffs),
                   "wdeg": self.ell2},
        }


def _vector(field: Field, row: Sequence[list[int]]) -> ModuleVector:
    return ModuleVector(Polynomial(field, row[0]), Polynomial(field, row[1]))


def _reduced_pair(field: Field, rows: Sequence[Sequence[list[int]]],
                  order: WeightedOrder) -> GroebnerPair:
    """The reduced basis of the rank-2 module that two rows span.

    One row operation does all the work: cancel the top coefficient of
    component j of one row against that of the other row, by subtracting
    c * x^s times the other row (Mulders & Storjohann, JSC 35, 2003).

    Reduce: while both rows lead in the same position, cancel the higher
    lead there.  The lead falls strictly each time, so this ends with the
    rows leading in positions 1 and 2: a minimal basis.

    Normalize: make both rows monic.  With g1 leading in x^e1 e1 and g2 in
    x^d e2, cancel g1.f2's coefficients of degree >= d, top down, then
    g2.f1's of degree >= e1; no step moves either leading monomial, and the
    pair is then unique for the module and order.

    The rows are copied into Python lists of ints, low to high, each
    component trimmed to its own degree, so a row step costs one
    `Field.axpy` per component over that component's width."""
    rows = [[list(c) for c in row] for row in rows]
    for comp in rows[0] + rows[1]:
        while comp and not comp[-1]:
            comp.pop()
    axpy = field.axpy

    def lead(i: int) -> Lead:
        if not any(rows[i]):
            raise ArithmeticError("the rows do not span a rank-2 module")
        return _lead(order, *rows[i])

    def cancel(hi: int, lo: int, j: int) -> None:
        a, b = rows[hi], rows[lo]
        s = len(a[j]) - len(b[j])
        c = field.div(a[j][-1], b[j][-1])
        for x, y in zip(a, b):
            if len(x) < s + len(y):
                x += [0] * (s + len(y) - len(x))
            x[s:s + len(y)] = axpy(c, x[s:s + len(y)], y)
            while x and not x[-1]:
                x.pop()

    leads = [lead(0), lead(1)]
    while leads[0].position == leads[1].position:
        hi = int(leads[1].exponent >= leads[0].exponent)  # at a tie, either
        cancel(hi, 1 - hi, leads[hi].position - 1)
        leads[hi] = lead(hi)

    g1, g2 = (0, 1) if leads[0].position == 1 else (1, 0)
    for i in (g1, g2):  # 0 - c * row, c = -1 / lc: the row made monic
        c = field.neg(field.inv(leads[i].coeff))
        rows[i] = [axpy(c, [0] * len(x), x) for x in rows[i]]
    while len(rows[g1][1]) >= len(rows[g2][1]):
        cancel(g1, g2, 1)
    while len(rows[g2][0]) >= len(rows[g1][0]):
        cancel(g2, g1, 0)
    return GroebnerPair(_vector(field, rows[g1]), _vector(field, rows[g2]),
                        leads[g1].wdeg, leads[g2].wdeg, order)


# ---------------------------------------------------------------------------
# Interpolation module of a received word
# ---------------------------------------------------------------------------


def _symbols(code: RSCode, r) -> tuple[int, ...]:
    if isinstance(r, Word):
        if r.code != code:
            raise ValueError("word belongs to a different code")
        return r.symbols
    syms = tuple(code.field.check(s) for s in r)
    if len(syms) != code.n:
        raise ValueError(f"expected {code.n} symbols, got {len(syms)}")
    return syms


def decoder_order(code: RSCode) -> WeightedOrder:
    return WeightedOrder((0, code.k - 1))


def _generator_rows(code: RSCode, vanishing: Polynomial,
                    L: list[int]) -> list[tuple[list[int], list[int]]]:
    """(V, 0) and (L, -1), for L the interpolant of a word on the points
    where V vanishes."""
    return [(vanishing.coeffs, []), (L, [code.field.neg(1)])]


def interpolant(code: RSCode, r) -> list[int]:
    """The coefficients, low to high, of r's interpolant L on all n points:
    r . B with the code's interpolation matrix B."""
    consts = code.constants()
    arr = consts.arrays
    return arr.dot(arr.array(_symbols(code, r)),
                   consts.interpolation_matrix).tolist()


def interpolation_generators(code: RSCode, r) -> tuple[ModuleVector, ModuleVector]:
    """The generating pair (Pi, 0), (L, -1) of M(r); Pi and the matrix that
    interpolates a word are the code's (`RSCode.constants`)."""
    rows = _generator_rows(code, code.constants().vanishing,
                           interpolant(code, r))
    return tuple(_vector(code.field, row) for row in rows)


def mgb_euclid(code: RSCode, r) -> GroebnerPair:
    """Minimal Groebner basis of M(r), reduced from the generators (Pi, 0),
    (L, -1) (the Euclidean remainder sequence, one quotient term at a
    time)."""
    rows = _generator_rows(code, code.constants().vanishing,
                           interpolant(code, r))
    return _reduced_pair(code.field, rows, decoder_order(code))


def _massey(field: Field, R: list[int]) -> tuple[list[int], int, list[int],
                                                 int, int]:
    """Berlekamp-Massey over the syndromes S_0 .. S_(N-1), given reversed
    as R = S~'s coefficients: (C, L, B, L_B, b).

    C is the final connection polynomial, of degree <= L, the shortest
    register that generates S: sum_i C_i S_(j-i) = 0 for L <= j < N.  B is
    the connection polynomial before the last length change, of degree
    <= L_B, and b its discrepancy there; B = 1, b = 1 while L = 0 (Massey,
    IEEE T-IT 15(1), 1969)."""
    axpy, inner = field.axpy, field.inner
    N = len(R)
    C, B = [1], [1]
    L = L_B = 0
    b, shift = 1, 1
    for r in range(N):  # the discrepancy of C at S_r
        d = inner(C, R[N - 1 - r:N - 1 - r + len(C)])
        if not d:
            shift += 1
            continue
        w = shift + len(B)
        prev = C
        C = C + [0] * (w - len(C))
        C[shift:w] = axpy(field.div(d, b), C[shift:w], B)
        if 2 * L <= r:
            B, L_B, b, L, shift = prev, L, d, r + 1 - L, 1
        else:
            shift += 1
    return C, L, B, L_B, b


def syndrome_pair(code: RSCode, syndromes: np.ndarray) -> GroebnerPair:
    """The ell's and second components of M(r)'s basis, from r's n - k
    syndromes S = r . H^T alone (the key-equation module).

    It is the reduced basis of the module that (x^(n-k), 0) and (S~, 1),
    S~ = sum_j S_j x^(n-k-1-j), span, under the (1, 0)-weighted order;
    each ell is its row's weighted degree plus k - 1, and g1 is negated, so
    that g1.f2 is M(r)'s.  The first components are the omegas of the key
    equation, not M(r)'s f1, so `combine` does not apply to this pair.
    g2.f2 may differ from `mgb_euclid`'s by c * g1.f2 with
    deg c <= ell2 - ell1, which maps each level's pairs (a, b) onto
    themselves (see the module docstring).

    One pass of Berlekamp-Massey over S (Massey, IEEE T-IT 15(1), 1969;
    `_massey`) gives the basis, with N = n - k.  The locator
    lam = x^D P(1/x) of a register P of length D, P_0 = 1, has
    omega = lam * S~ mod x^N with sum_i P_i S_(j-i), P's discrepancy at
    S_j, as its coefficient of x^(N-1+D-j) for D <= j < N: zero while
    the register generates S.  So lam2 = x^L C(1/x), monic of degree L, has
    deg omega2 < L: g2 leads in position 2 with weighted degree L.  B
    failed first at S_m, m = L + L_B - 1, with discrepancy b, so
    lam1 = x^(L_B) B(1/x), of degree L_B < L, has omega1 of degree
    N - L and leading coefficient b: g1 is (omega1, lam1) / b, of weighted
    degree N - L + 1, and the degrees sum to N + 1, the determinant's.
    Both omegas are one field product, the two locators against the
    Toeplitz matrix of S~.  omega2 has degree < N - L = deg omega1 unless
    2L > N; then its coefficients of degree >= N - L are cancelled, top
    down, with multiples of g1, which leave lam2 monic of degree L.  At
    L = 0 every syndrome is zero: r is a codeword, and the basis is
    (x^N, 0), (0, 1)."""
    F, k = code.field, code.k
    N = code.n - k
    order = WeightedOrder((1, 0))
    C, L, B, L_B, b = _massey(F, syndromes[::-1].tolist())
    if not L:
        return GroebnerPair(_vector(F, ([0] * N + [F.neg(1)], [])),
                            _vector(F, ([], [1])), code.n, k - 1, order)
    lam1 = (B + [0] * (L_B + 1 - len(B)))[::-1]
    lam2 = (C + [0] * (L + 1 - len(C)))[::-1]
    arr = code.constants().arrays
    width = max(N - L + 1, L)
    padded = np.zeros(L + N, dtype=arr.dtype)
    padded[L:] = syndromes[::-1]
    toeplitz = padded[np.arange(L, L + width) - np.arange(L + 1)[:, None]]
    omega1, omega2 = arr.dot(arr.array([lam1 + [0] * (L - L_B), lam2]),
                             toeplitz).tolist()
    c = F.inv(b)  # 0 - c*v = -v / b: g1 made monic, then negated
    omega1 = F.axpy(c, [0] * (N - L + 1), omega1)
    lam1 = F.axpy(c, [0] * (L_B + 1), lam1)
    for e in range(L - 1, N - L - 1, -1):  # only when 2L > N
        if omega2[e]:  # omega1 leads with -1
            s, c = e - (N - L), F.neg(omega2[e])
            omega2[s:e + 1] = F.axpy(c, omega2[s:e + 1], omega1)
            lam2[s:s + L_B + 1] = F.axpy(c, lam2[s:s + L_B + 1], lam1)
    return GroebnerPair(_vector(F, (omega1, lam1)), _vector(F, (omega2, lam2)),
                        code.n - L, L + k - 1, order)


def _koetter_rows(field: Field, anchors: list[ProjectivePoint],
                  w: int) -> list[tuple[list[int], list[int]]]:
    """Koetter's two candidates at s = 1, M = 1 as rows (f1, f2): a minimal
    basis of {(f1, f2) : f1(x) + v*f2(x) = 0 at every anchor (x, v)} under
    the (0, w)-weighted order, the z^0-led row first."""
    G, _ = koetter_candidates(field, anchors, 1, 1, w)
    return [(c[0].tolist(), c[1].tolist()) for c in G]


def mgb_iterative(code: RSCode, r) -> GroebnerPair:
    """Minimal Groebner basis of M(r) built one evaluation point at a time."""
    anchors = [ProjectivePoint.finite(x, v)
               for x, v in zip(code.eval_points, _symbols(code, r))]
    rows = _koetter_rows(code.field, anchors, code.k - 1)
    return _reduced_pair(code.field, rows, decoder_order(code))


# ---------------------------------------------------------------------------
# Re-encoded variants: short module over the first n - k + 1 points
# ---------------------------------------------------------------------------


def _residuals(code: RSCode, y: Sequence[int]) -> np.ndarray:
    """A re-encoded word's n - k residuals, checked, as a field array."""
    nk = code.n - code.k
    ys = [code.field.check(v) for v in y]
    if len(ys) != nk:
        raise ValueError(f"expected {nk} shifted symbols, got {len(ys)}")
    return code.constants().arrays.array(ys)


def mgb_euclid_reencoded(code: RSCode, y: Sequence[int]) -> GroebnerPair:
    """Unweighted minimal Groebner basis of the short module, reduced from
    (Pi_y, 0) and (L_y, -1) on the first n - k + 1 points, where
    L_y = y . R with R the code's `short_interpolation_matrix`."""
    consts = code.constants()
    L_y = consts.arrays.dot(_residuals(code, y),
                            consts.short_interpolation_matrix)
    rows = _generator_rows(code, consts.short_vanishing, L_y.tolist())
    return _reduced_pair(code.field, rows, WeightedOrder((0, 0)))


def mgb_iterative_reencoded(code: RSCode, y: Sequence[int]) -> GroebnerPair:
    """Unweighted minimal Groebner basis of the short module, iteratively:
    one anchor (x_j, L_y(x_j)) per point of the short module, L_y(x_j) =
    y_j / G(x_j) at the first n - k points with G = prod (x - x_i) over the
    last k - 1, and 0 at the next."""
    F, nk = code.field, code.n - code.k
    g = vanishing_poly(F, code.eval_points[nk + 1:])
    values = [F.div(v, g.evaluate(x)) for x, v in
              zip(code.eval_points, _residuals(code, y).tolist())] + [0]
    anchors = [ProjectivePoint.finite(x, v)
               for x, v in zip(code.eval_points, values)]
    return _reduced_pair(F, _koetter_rows(F, anchors, 0), WeightedOrder((0, 0)))
