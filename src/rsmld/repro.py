"""Built-in reference cases with known-correct outputs.

A handful of small worked examples whose every intermediate value (basis
degrees, decoded lists, optimizer tables) has been worked out by hand.
Any regression in the pipeline shows up here as a concrete numeric
mismatch.  `rsmld repro` runs them all; the acceptance tests assert them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .code import RSCode, Word
from .division import decode_minimal, reencode
from .fields import Field
from .groebner import (GroebnerPair, mgb_euclid, mgb_euclid_reencoded,
                       mgb_iterative)
from .polys import Polynomial, lagrange_interpolate, vanishing_poly
from .rational import decode_rational
from .ratparams import multiplicity_scan, optimize_params, wu_params


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(out: list[CheckResult], name: str, ok: bool, detail: str = "") -> None:
    out.append(CheckResult(name, bool(ok), "" if ok else detail))


def _msg_lists(outcome) -> list[list[int]]:
    return [list(m.coeffs) for m in outcome.messages]


def _check_reencoded_degrees(out: list[CheckResult], code: RSCode, r: Word,
                             basis: GroebnerPair,
                             expected: tuple[int, int]) -> None:
    """The paper's re-encoding: the short module of y = r - encode(shift)
    over n - k + 1 points has the full basis' degrees less k - 1."""
    short = mgb_euclid_reencoded(code, reencode(code, r).y)
    got = (short.ell1, short.ell2)
    lifted = (basis.ell1 - code.k + 1, basis.ell2 - code.k + 1)
    _check(out, f"re-encoded basis degrees {expected} = (ell1, ell2) - (k-1)",
           got == expected == lifted, f"got {got}")


def check_single_error_case() -> list[CheckResult]:
    """(7,5) over GF(7): r one error away from encoding 2x^2 + x + 3."""
    out: list[CheckResult] = []
    F = Field(7)
    code = RSCode(F, 7, 5)
    r = Word(code, (3, 2, 6, 3, 4, 2, 4))

    pi = vanishing_poly(F, code.eval_points)
    _check(out, "vanishing polynomial is x^7 - x",
           pi.coeffs == [0, 6, 0, 0, 0, 0, 0, 1], f"got {pi.coeffs}")
    lag = lagrange_interpolate(F, code.eval_points, r.symbols)
    _check(out, "interpolant of r", lag.coeffs == [3, 5, 6, 4, 4, 4, 4],
           f"got {lag.coeffs}")

    basis = mgb_iterative(code, r)
    _check(out, "basis degrees (ell1, ell2) = (6, 5)",
           (basis.ell1, basis.ell2) == (6, 5),
           f"got ({basis.ell1}, {basis.ell2})")
    _check(out, "iterative and remainder-sequence bases agree",
           basis == mgb_euclid(code, r))
    _check(out, "g2 = (5x^3 + x^2 + 5x + 3, x + 6) after normalization",
           basis.g2.f1.coeffs == [3, 5, 1, 5] and basis.g2.f2.coeffs == [6, 1],
           f"got ({basis.g2.f1.coeffs}, {basis.g2.f2.coeffs})")

    _check_reencoded_degrees(out, code, r, basis, (2, 1))
    expected = [[3, 1, 2]]
    for label, result in (
            ("division", decode_minimal(code, r)),
            ("rational", decode_rational(code, r))):
        _check(out, f"{label}: distance 1, message list {{2x^2 + x + 3}}",
               result.min_distance == 1 and _msg_lists(result) == expected,
               f"got d={result.min_distance}, {_msg_lists(result)}")
    return out


def check_two_error_case() -> list[CheckResult]:
    """(7,4) over GF(7): r two errors away, three codewords at distance 2."""
    out: list[CheckResult] = []
    F = Field(7)
    code = RSCode(F, 7, 4)
    r = Word(code, (3, 2, 6, 3, 2, 2, 4))

    lag = lagrange_interpolate(F, code.eval_points, r.symbols)
    _check(out, "interpolant of r", lag.coeffs == [3, 2, 0, 6, 1, 5, 6],
           f"got {lag.coeffs}")
    basis = mgb_iterative(code, r)
    _check(out, "basis degrees (ell1, ell2) = (5, 5)",
           (basis.ell1, basis.ell2) == (5, 5),
           f"got ({basis.ell1}, {basis.ell2})")

    _check_reencoded_degrees(out, code, r, basis, (2, 2))
    expected = [[3, 1, 2], [3, 3, 5, 5], [5, 3, 5, 3]]
    for label, result in (
            ("division", decode_minimal(code, r)),
            ("rational", decode_rational(code, r))):
        _check(out, f"{label}: distance 2 with exactly three messages",
               result.min_distance == 2 and _msg_lists(result) == expected,
               f"got d={result.min_distance}, {_msg_lists(result)}")
    oracle = code.ml_oracle(r)
    _check(out, "oracle agrees", oracle == decode_minimal(code, r))
    return out


def check_optimizer_large_code() -> list[CheckResult]:
    """(127, 24), radius 64, fit degrees (15, 9): full optimizer table."""
    out: list[CheckResult] = []
    res = optimize_params(127, 24, 64, 15, 9)
    _check(out, "smallest workable multiplicity s = 2", res.s_min == 2,
           f"got {res.s_min}")
    rows = [(p.M, p.rho, p.U) for p in res.rows]
    _check(out, "candidate rows (M, rho, U)",
           rows == [(4, 88, 385), (5, 78, 384), (6, 72, 385)], f"got {rows}")
    _check(out, "optimum (M, rho, U) = (4, 88, 385)",
           (res.best.M, res.best.rho, res.best.U) == (4, 88, 385),
           f"got ({res.best.M}, {res.best.rho}, {res.best.U})")
    _check(out, "constraint count N = 381", res.best.N == 381,
           f"got {res.best.N}")
    scan = res.scan[0]
    _check(out, "cap quadratic roots bracket (3.32, 6.34)",
           scan.M1.floor() == 3 and scan.M2.floor() == 6
           and abs(float(scan.M1) - 3.3241) < 1e-3
           and abs(float(scan.M2) - 6.3426) < 1e-3,
           f"got ({float(scan.M1):.4f}, {float(scan.M2):.4f})")

    wu = wu_params(127, 24, 64, 15, 9)
    _check(out, "closed form: s=2, M=5, rho=82, N=381, U=408",
           (wu.s, wu.M, wu.rho, wu.N, wu.U) == (2, 5, 82, 381, 408),
           f"got ({wu.s}, {wu.M}, {wu.rho}, {wu.N}, {wu.U})")
    _check(out, "optimum does less work than the closed form",
           res.best.cost < wu.cost,
           f"{res.best.cost} vs {wu.cost}")
    return out


def check_multiplicity_scan_midsize() -> list[CheckResult]:
    """(15, 5), radius 7, fit degrees (2, 1): the s-scan in detail."""
    out: list[CheckResult] = []
    s1 = multiplicity_scan(15, 5, 7, 2, 1, 1)
    _check(out, "s=1: no real cap interval", not s1.feasible and s1.disc < 0,
           f"feasible={s1.feasible}, disc={s1.disc}")
    s6 = multiplicity_scan(15, 5, 7, 2, 1, 6)
    _check(out, "s=6: cap interval (13, 14) holds no integer",
           not s6.feasible and s6.M1 == 13 and s6.M2 == 14,
           f"feasible={s6.feasible}, roots ({s6.M1!r}, {s6.M2!r})")
    res = optimize_params(15, 5, 7, 2, 1)
    _check(out, "smallest workable multiplicity s = 7", res.s_min == 7,
           f"got {res.s_min}")
    scan = res.scan[-1]
    _check(out, "s=7 cap roots exactly 14 and 53/3",
           scan.M1 == 14 and scan.M2 == Fraction(53, 3),
           f"got ({scan.M1!r}, {scan.M2!r})")
    _check(out, "z-degree candidates {15, 16, 17}",
           [p.M for p in res.rows] == [15, 16, 17],
           f"got {[p.M for p in res.rows]}")
    _check(out, "optimum M=15 with rho=33",
           res.best.M == 15 and res.best.rho == 33,
           f"got M={res.best.M}, rho={res.best.rho}")
    return out


SUITES = [
    ("(7,5) over GF(7), one error", check_single_error_case),
    ("(7,4) over GF(7), two errors", check_two_error_case),
    ("(127,24) parameter optimization", check_optimizer_large_code),
    ("(15,5) multiplicity scan", check_multiplicity_scan_midsize),
]


def run_all() -> list[tuple[str, list[CheckResult]]]:
    return [(name, fn()) for name, fn in SUITES]
