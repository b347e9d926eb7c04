"""Minimal Groebner bases of the interpolation module in F[x]^2.

A received word r for an (n, k) Reed-Solomon code determines the module

    M(r) = {(f1, f2) : f1(x_i) + r_i * f2(x_i) = 0 for all points x_i}
         = span{(Pi, 0), (L, -1)}

where Pi is the vanishing polynomial of the evaluation points and L is the
Lagrange interpolant of r.  The decoders consume a minimal Groebner basis
{g1, g2} of M(r) under the (0, k-1)-weighted term-over-position order; the
weighted degrees ell1, ell2 of the two elements sum to n + k - 1 and the
leading positions are 1 and 2 respectively (either degree may be the larger
one).

Two constructions are provided: a Euclidean remainder sequence on (Pi, L)
and a point-by-point iteration, plus re-encoded variants that interpolate a
shifted word over only n - k + 1 points (unweighted order) and are lifted by
the caller.  All four normalize their output to the unique reduced basis
(monic leading coefficients, each element fully reduced by the other), so
the different constructions return identical objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .code import RSCode, Word
from .polys import Polynomial, lagrange_interpolate, vanishing_poly


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

    def is_zero(self) -> bool:
        return self.f1.is_zero() and self.f2.is_zero()

    def component(self, position: int) -> Polynomial:
        return self.f1 if position == 1 else self.f2

    def sub(self, other: "ModuleVector") -> "ModuleVector":
        return ModuleVector(self.f1 - other.f1, self.f2 - other.f2)

    def scale(self, c: int) -> "ModuleVector":
        return ModuleVector(self.f1.scale(c), self.f2.scale(c))

    def times_x_minus(self, a: int) -> "ModuleVector":
        return ModuleVector(self.f1.times_x_minus(a), self.f2.times_x_minus(a))

    def term_mul(self, c: int, e: int) -> "ModuleVector":
        """Multiply by the term c * x**e."""
        return ModuleVector(self.f1.shift_up(e).scale(c),
                            self.f2.shift_up(e).scale(c))

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


def leading(order: WeightedOrder, v: ModuleVector) -> Lead:
    """Leading (largest) monomial of v, its weighted degree and coefficient."""
    if v.is_zero():
        raise ValueError("the zero vector has no leading monomial")
    best = None
    for pos in (1, 2):
        comp = v.component(pos)
        if comp.is_zero():
            continue
        e = comp.degree()
        k = order.key(e, pos)
        if best is None or k > best[0]:
            best = (k, pos, e, comp.leading())
    _, pos, e, lc = best
    return Lead(pos, e, order.wdeg(e, pos), lc)


def _monomials_desc(order: WeightedOrder, v: ModuleVector):
    """All monomials of v as (key, exponent, position, coeff), largest first."""
    out = []
    for pos in (1, 2):
        comp = v.component(pos)
        for e, c in enumerate(comp):
            if c:
                out.append((order.key(e, pos), e, pos, c))
    out.sort(reverse=True)
    return out


def reduce_vector(order: WeightedOrder, v: ModuleVector,
                  basis: Sequence[ModuleVector]) -> ModuleVector:
    """Normal form of v modulo basis: cancel every monomial divisible by some
    leading monomial of the basis, largest first, until none remains."""
    F = v.field
    leads = [(g, leading(order, g)) for g in basis if not g.is_zero()]
    while not v.is_zero():
        hit = None
        for _, e, pos, c in _monomials_desc(order, v):
            for g, lg in leads:
                if lg.position == pos and e >= lg.exponent:
                    hit = (g, lg, e, c)
                    break
            if hit:
                break
        if hit is None:
            break
        g, lg, e, c = hit
        factor = F.div(c, lg.coeff)
        v = v.sub(g.term_mul(factor, e - lg.exponent))
    return v


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


def _normalize_pair(rows: list[ModuleVector], order: WeightedOrder) -> GroebnerPair:
    """Monic + inter-reduced form of a two-element minimal basis."""
    leads = [leading(order, v) for v in rows]
    if leads[0].position == leads[1].position:
        raise ArithmeticError("basis rows share a leading position; "
                              "not a minimal Groebner basis")
    by_pos = {leads[i].position: rows[i].scale(rows[i].field.inv(leads[i].coeff))
              for i in (0, 1)}
    g1 = reduce_vector(order, by_pos[1], (by_pos[2],))
    g2 = reduce_vector(order, by_pos[2], (g1,))
    l1, l2 = leading(order, g1), leading(order, g2)
    return GroebnerPair(g1, g2, l1.wdeg, l2.wdeg, order)


# ---------------------------------------------------------------------------
# Interpolation module of a received word
# ---------------------------------------------------------------------------


def _symbols(code: RSCode, r) -> tuple[int, ...]:
    if isinstance(r, Word):
        if r.code != code:
            raise ValueError("word belongs to a different code")
        return r.symbols
    syms = tuple(code.field.canon(s) for s in r)
    if len(syms) != code.n:
        raise ValueError(f"expected {code.n} symbols, got {len(syms)}")
    return syms


def decoder_order(code: RSCode) -> WeightedOrder:
    return WeightedOrder((0, code.k - 1))


def interpolation_generators(code: RSCode, r) -> tuple[ModuleVector, ModuleVector]:
    """The generating pair (Pi, 0), (L, -1) of M(r)."""
    syms = _symbols(code, r)
    F = code.field
    pi = vanishing_poly(F, code.eval_points)
    lag = lagrange_interpolate(F, code.eval_points, syms)
    zero = Polynomial.zero(F)
    minus_one = Polynomial.constant(F, F.neg(1))
    return ModuleVector(pi, zero), ModuleVector(lag, minus_one)


def _euclid_rows(top: ModuleVector, bottom: ModuleVector,
                 weight2: int) -> list[ModuleVector]:
    """Remainder sequence on the first components, stopping as soon as the
    newer row leads in position 2 (deg f2 + weight2 >= deg f1)."""
    prev, cur = top, bottom
    while cur.f2.degree() + weight2 < cur.f1.degree():
        q = prev.f1 // cur.f1
        nxt = ModuleVector(prev.f1 - q * cur.f1, prev.f2 - q * cur.f2)
        prev, cur = cur, nxt
    return [prev, cur]


def mgb_euclid(code: RSCode, r) -> GroebnerPair:
    """Minimal Groebner basis of M(r) via a Euclidean remainder sequence."""
    gen_pi, gen_lag = interpolation_generators(code, r)
    rows = _euclid_rows(gen_pi, gen_lag, code.k - 1)
    return _normalize_pair(rows, decoder_order(code))


def _iterate_rows(row1: ModuleVector, w1: int, row2: ModuleVector, w2: int,
                  points: Sequence[int], values: Sequence[int]) -> list[ModuleVector]:
    """Point-by-point basis update.

    row1 leads in position 1 with weighted degree w1, row2 in position 2
    with weighted degree w2; each step enforces f1(x) + v * f2(x) = 0 at one
    more point.  The row whose leading degree must grow is the one that
    cannot absorb the correction: row2 grows exactly when row1's degree
    strictly dominates (on a tie the cross-combination leads in position 2,
    so it must become the new row2).
    """
    F = row1.field
    for x, v in zip(points, values):
        gamma = F.add(row1.f1.evaluate(x), F.mul(v, row1.f2.evaluate(x)))
        delta = F.add(row2.f1.evaluate(x), F.mul(v, row2.f2.evaluate(x)))
        if gamma == 0 and delta == 0:
            raise ArithmeticError("both discrepancies vanished; "
                                  "evaluation points are not distinct")
        combo = row1.scale(delta).sub(row2.scale(gamma))
        if delta != 0 and (gamma == 0 or w1 > w2):
            row1, row2 = combo, row2.times_x_minus(x)
            w2 += 1
        else:
            row1, row2 = row1.times_x_minus(x), combo
            w1 += 1
    return [row1, row2]


def mgb_iterative(code: RSCode, r) -> GroebnerPair:
    """Minimal Groebner basis of M(r) built one evaluation point at a time."""
    syms = _symbols(code, r)
    F = code.field
    row1 = ModuleVector(Polynomial.one(F), Polynomial.zero(F))
    row2 = ModuleVector(Polynomial.zero(F), Polynomial.one(F))
    rows = _iterate_rows(row1, 0, row2, code.k - 1, code.eval_points, syms)
    return _normalize_pair(rows, decoder_order(code))


# ---------------------------------------------------------------------------
# Re-encoded variants: short module over the first n - k + 1 points
# ---------------------------------------------------------------------------


def reencoding_multiplier(code: RSCode) -> Polynomial:
    """G = prod (x - x_i) over the last k - 1 evaluation points."""
    return vanishing_poly(code.field, code.eval_points[code.n - code.k + 1:])


def _short_values(code: RSCode, y: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Points x_1..x_{n-k}, values y_j / G(x_j), and the extra root x_{n-k+1}."""
    F = code.field
    nk = code.n - code.k
    ys = [F.canon(v) for v in y]
    if len(ys) != nk:
        raise ValueError(f"expected {nk} shifted symbols, got {len(ys)}")
    G = reencoding_multiplier(code)
    pts = list(code.eval_points[:nk])
    vals = [F.div(v, G.evaluate(x)) for x, v in zip(pts, ys)]
    return pts, vals, code.eval_points[nk]


def reencoded_generators(code: RSCode, y: Sequence[int]) -> tuple[ModuleVector, ModuleVector]:
    """Generators (Pi_y, 0), (L_y, -1) of the short module of a shifted word.

    Pi_y vanishes on the first n - k + 1 points; L_y is the degree <= n - k
    interpolant taking value y_j / G(x_j) on the first n - k points and 0 at
    the (n - k + 1)-th.
    """
    F = code.field
    pts, vals, x_star = _short_values(code, y)
    pi_y = vanishing_poly(F, pts + [x_star])
    l_y = lagrange_interpolate(F, pts + [x_star], vals + [0])
    return (ModuleVector(pi_y, Polynomial.zero(F)),
            ModuleVector(l_y, Polynomial.constant(F, F.neg(1))))


def mgb_euclid_reencoded(code: RSCode, y: Sequence[int]) -> GroebnerPair:
    """Unweighted minimal Groebner basis of the short module, Euclid style."""
    gen_pi, gen_lag = reencoded_generators(code, y)
    rows = _euclid_rows(gen_pi, gen_lag, 0)
    return _normalize_pair(rows, WeightedOrder((0, 0)))


def mgb_iterative_reencoded(code: RSCode, y: Sequence[int]) -> GroebnerPair:
    """Unweighted minimal Groebner basis of the short module, iteratively."""
    F = code.field
    pts, vals, x_star = _short_values(code, y)
    row1 = ModuleVector(Polynomial.x(F) - Polynomial.constant(F, x_star),
                        Polynomial.zero(F))
    row2 = ModuleVector(Polynomial.zero(F), Polynomial.one(F))
    rows = _iterate_rows(row1, 1, row2, 0, pts, vals)
    return _normalize_pair(rows, WeightedOrder((0, 0)))
