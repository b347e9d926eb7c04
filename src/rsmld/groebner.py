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

Two constructions are provided: a Euclidean remainder sequence on (Pi, L),
which the decoders use, and a point-by-point iteration, its test reference,
plus re-encoded variants of both over a shifted word's n - k + 1 points
(unweighted order), lifted by the caller.  The iteration is Koetter's update
(`bivar.koetter_candidates`) at multiplicity s = 1 and z-degree M = 1:
Q = f1(x) + z*f2(x) passes through (x_i, r_i) exactly when (f1, f2) lies in
M(r), and the two final candidates, led by z^0 and z^1 under (1, k-1)
weights, are a minimal Groebner basis under the (0, k-1) order (McEliece,
IPN PR 42-153, 2003; Lee & O'Sullivan, JSC 43, 2008).

Both constructions work on rows (f1, f2) of trimmed coefficient arrays: the
remainder sequence divides and multiplies with `FieldArrays.poly_divmod` and
`poly_mul`, and Koetter's candidates are arrays already.  All four hand
their two rows to one normalization, also on arrays, which yields the unique
reduced basis (monic leading coefficients, each element fully reduced by the
other), so the different constructions return identical objects; only that
final pair is built as `Polynomial`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bivar import ProjectivePoint, koetter_candidates
from .code import RSCode, Word
from .fields import Field, FieldArrays
from .polys import Polynomial


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


# A module vector (f1, f2) while a basis is built: two trimmed coefficient
# arrays (`FieldArrays.trim`), low to high.
Row = tuple[np.ndarray, np.ndarray]


class Lead(NamedTuple):
    """Leading monomial data of a module vector under some order."""

    position: int
    exponent: int
    wdeg: int
    coeff: int


def _lead(order: WeightedOrder, f1, f2) -> Lead:
    """Leading monomial of (f1, f2), given as trimmed coefficient lists or
    arrays."""
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


def _vector(field: Field, row: Row) -> ModuleVector:
    return ModuleVector(Polynomial(field, row[0].tolist()),
                        Polynomial(field, row[1].tolist()))


def _poly_sub(arr: FieldArrays, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b on coefficient arrays of any lengths, trimmed."""
    out = np.zeros(max(len(a), len(b)), dtype=arr.dtype)
    out[:len(a)] = a
    out[:len(b)] = arr.sub(out[:len(b)], b)
    return arr.trim(out)


def _minus_multiple(arr: FieldArrays, v: Row, q: np.ndarray, g: Row) -> Row:
    """v - q*g for a coefficient array q."""
    return (_poly_sub(arr, v[0], arr.poly_mul(q, g[0])),
            _poly_sub(arr, v[1], arr.poly_mul(q, g[1])))


def _normalize_pair(field: Field, rows: list[Row],
                    order: WeightedOrder) -> GroebnerPair:
    """Monic + inter-reduced form of a two-element minimal basis.

    With g1 leading in x^ell1 e1 and g2 in x^d e2, g1 is reduced modulo g2
    when deg g1.f2 < d and g2 modulo g1 when deg g2.f1 < ell1; one division
    each gets there without moving either leading monomial."""
    arr = field.arrays()
    leads = [_lead(order, *row) for row in rows]
    if [lead.position for lead in leads] != [1, 2]:
        raise ArithmeticError("basis rows do not lead in positions 1 and 2; "
                              "not a minimal Groebner basis")
    g1, g2 = (tuple(arr.mul(field.inv(lead.coeff), c) for c in row)
              for row, lead in zip(rows, leads))
    g1 = _minus_multiple(arr, g1, arr.poly_divmod(g1[1], g2[1])[0], g2)
    g2 = _minus_multiple(arr, g2, arr.poly_divmod(g2[0], g1[0])[0], g1)
    return GroebnerPair(_vector(field, g1), _vector(field, g2),
                        leads[0].wdeg, leads[1].wdeg, order)


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
                    L: np.ndarray) -> list[Row]:
    """(V, 0) and (L, -1), for L the interpolant of a word on the points
    where V vanishes."""
    F, arr = code.field, code.constants().arrays
    return [(arr.array(vanishing.coeffs), arr.array([])),
            (L, arr.array([F.neg(1)]))]


def interpolant(code: RSCode, r) -> np.ndarray:
    """The trimmed coefficients, low to high, of r's interpolant L on all n
    points: r . B with the code's interpolation matrix B."""
    consts = code.constants()
    arr = consts.arrays
    return arr.trim(arr.dot(arr.array(_symbols(code, r)),
                            consts.interpolation_matrix))


def interpolation_generators(code: RSCode, r) -> tuple[ModuleVector, ModuleVector]:
    """The generating pair (Pi, 0), (L, -1) of M(r); Pi and the matrix that
    interpolates a word are the code's (`RSCode.constants`)."""
    rows = _generator_rows(code, code.constants().vanishing,
                           interpolant(code, r))
    return tuple(_vector(code.field, row) for row in rows)


def _euclid_rows(arr: FieldArrays, top: Row, bottom: Row,
                 weight2: int) -> list[Row]:
    """Remainder sequence on the first components, stopping as soon as the
    newer row leads in position 2 (deg f2 + weight2 >= deg f1).  A step's
    new f1 is the remainder of its division, and its f2 is
    prev.f2 - q*cur.f2."""
    prev, cur = top, bottom
    while len(cur[1]) + weight2 < len(cur[0]):
        q, rem = arr.poly_divmod(prev[0], cur[0])
        f2 = _poly_sub(arr, prev[1], arr.poly_mul(q, cur[1]))
        prev, cur = cur, (rem, f2)
    return [prev, cur]


def mgb_euclid(code: RSCode, r, L: np.ndarray | None = None) -> GroebnerPair:
    """Minimal Groebner basis of M(r) via a Euclidean remainder sequence;
    L is r's `interpolant`, when the caller has it already."""
    if L is None:
        L = interpolant(code, r)
    gens = _generator_rows(code, code.constants().vanishing, L)
    rows = _euclid_rows(code.field.arrays(), *gens, code.k - 1)
    return _normalize_pair(code.field, rows, decoder_order(code))


def _koetter_rows(field: Field, anchors: list[ProjectivePoint],
                  w: int) -> list[Row]:
    """Koetter's two candidates at s = 1, M = 1 as rows (f1, f2): a minimal
    basis of {(f1, f2) : f1(x) + v*f2(x) = 0 at every anchor (x, v)} under
    the (0, w)-weighted order, the z^0-led row first."""
    G, _ = koetter_candidates(field, anchors, 1, 1, w)
    arr = field.arrays()
    return [(arr.trim(c[0]), arr.trim(c[1])) for c in G]


def mgb_iterative(code: RSCode, r) -> GroebnerPair:
    """Minimal Groebner basis of M(r) built one evaluation point at a time."""
    anchors = [ProjectivePoint.finite(x, v)
               for x, v in zip(code.eval_points, _symbols(code, r))]
    rows = _koetter_rows(code.field, anchors, code.k - 1)
    return _normalize_pair(code.field, rows, decoder_order(code))


# ---------------------------------------------------------------------------
# Re-encoded variants: short module over the first n - k + 1 points
# ---------------------------------------------------------------------------


def _short_values(code: RSCode, y: Sequence[int]) -> np.ndarray:
    """L_y's values: y_j / G(x_j) at the first n - k points, 0 at the next."""
    nk = code.n - code.k
    ys = [code.field.check(v) for v in y]
    if len(ys) != nk:
        raise ValueError(f"expected {nk} shifted symbols, got {len(ys)}")
    consts = code.constants()
    return np.append(consts.arrays.mul(consts.arrays.array(ys),
                                       consts.head_multiplier_inverse), 0)


def mgb_euclid_reencoded(code: RSCode, y: Sequence[int]) -> GroebnerPair:
    """Unweighted minimal Groebner basis of the short module, Euclid style,
    from (Pi_y, 0) and (L_y, -1) on the first n - k + 1 points."""
    consts = code.constants()
    L_y = consts.arrays.trim(consts.arrays.dot(
        _short_values(code, y), consts.short_interpolation_matrix))
    gens = _generator_rows(code, consts.short_vanishing, L_y)
    rows = _euclid_rows(code.field.arrays(), *gens, 0)
    return _normalize_pair(code.field, rows, WeightedOrder((0, 0)))


def mgb_iterative_reencoded(code: RSCode, y: Sequence[int]) -> GroebnerPair:
    """Unweighted minimal Groebner basis of the short module, iteratively:
    one anchor (x_j, L_y(x_j)) per point of the short module."""
    anchors = [ProjectivePoint.finite(x, v) for x, v in
               zip(code.eval_points, _short_values(code, y).tolist())]
    rows = _koetter_rows(code.field, anchors, 0)
    return _normalize_pair(code.field, rows, WeightedOrder((0, 0)))
