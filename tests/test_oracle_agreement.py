"""Every decoder against the exhaustive oracle on random small codes, the
filtered level search against the exhaustive one, the filter's zero sets
against the oracle's error sets, and the candidate check against the exact
test and the oracle.

The exhaustive search is kept here as the reference: the level loop with
every coprime pair of every level sent to the exact test, which divides f1
by f2, encodes the quotient and counts its distance from r.  Every
decoder's `search_levels` call is also run as that loop, and the outcomes
must match exactly.  Every decoder's pair comes from the syndromes and
carries no f1 of M(r), so the exact test combines
`mgb_euclid`'s basis instead, which has the same ell's and, level by level,
the same f2's.
"""

from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from rsmld import division, rational
from rsmld.code import DecodeOutcome, RSCode, Word, corrupt, hamming_distance
from rsmld.division import (RadiusCapExceeded, combine, decode_minimal,
                            decode_minimal_reencoded, extract_message,
                            level_shapes, search_radius_cap)
from rsmld.fields import Field
from rsmld.groebner import mgb_euclid
from rsmld.polys import Polynomial, monic_polys
from rsmld.rational import decode_rational

FIELDS = [Field(5), Field(7), Field(2, 2), Field(2, 3), Field(2, 3, 0b1101)]
DECODERS = [decode_minimal, decode_minimal_reencoded, decode_rational]
PREFILTERED = division.search_levels


@st.composite
def received_words(draw):
    """A codeword of a small code with some positions overwritten."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, min(7, field.q)))
    k = draw(st.integers(1, min(3, n - 1)))
    points = None
    if draw(st.booleans()):
        points = draw(st.permutations(range(field.q)))[:n]
    code = RSCode(field, n, k, points)
    msg = draw(st.lists(st.integers(0, field.q - 1), min_size=k, max_size=k))
    symbols = list(code.encode(msg).symbols)
    for pos in draw(st.sets(st.integers(0, n - 1))):
        symbols[pos] = draw(st.integers(0, field.q - 1))
    return code, Word(code, tuple(symbols))


@settings(max_examples=60, deadline=None)
@given(received_words())
def test_decoders_match_oracle(case):
    code, word = case
    oracle = code.ml_oracle(word)
    for beyond_johnson in (False, True):
        cap = search_radius_cap(code, beyond_johnson)
        for decode in DECODERS:
            try:
                out = decode(code, word, beyond_johnson=beyond_johnson)
            except RadiusCapExceeded:
                assert oracle.min_distance > cap, (decode.__name__, cap)
                continue
            assert out.min_distance == oracle.min_distance, decode.__name__
            assert out.message_coeff_lists() == oracle.message_coeff_lists(), \
                decode.__name__


RS_15_7 = RSCode(Field(2, 4), 15, 7)


@pytest.mark.parametrize("seed", range(4))
def test_decoders_match_oracle_past_its_table(seed):
    # RS(15,7) over GF(16), 5 errors, one past the Johnson radius: the
    # oracle's table would hold 16^6 x 15 entries (252 MB), its information
    # sets hold 2 x 8 x 6435 bytes; seed 0 has two nearest messages
    r = corrupt(RS_15_7.encode([1, 2, 3, 4, 5, 6, 7]), 5, seed)
    oracle = RS_15_7.ml_oracle(r, budget=16 ** 7)
    assert "codeword_table" not in vars(RS_15_7.constants())
    assert oracle.min_distance == 5
    assert len(oracle.messages) == (2 if seed == 0 else 1)
    for decode in (decode_minimal, decode_rational):
        out = decode(RS_15_7, r)
        assert out.min_distance == oracle.min_distance, decode.__name__
        assert out.message_coeff_lists() == oracle.message_coeff_lists(), \
            decode.__name__


def enumerate_polys(field, max_deg):
    """All polynomials of degree <= max_deg: the zero polynomial, then
    degree by degree, each monic polynomial's lower coefficients under every
    leading coefficient 1..q-1."""
    yield Polynomial.zero(field)
    for deg in range(max_deg + 1):
        for monic in monic_polys(field, deg):
            low = monic.coeffs[:-1]
            for lead in range(1, field.q):
                yield Polynomial(field, low + [lead])


def every_coprime_pair(field, shape):
    """The unfiltered pair source: every coprime (a, b) of a level, and
    (0, 1) alone at level 0 when a's degree bound is negative."""
    if shape.a_max_deg < 0:
        if shape.level == 0:
            yield Polynomial.zero(field), Polynomial.one(field)
        return
    for b in monic_polys(field, shape.b_deg):
        for a in enumerate_polys(field, shape.a_max_deg):
            if a.coprime(b):
                yield a, b


def exact_pair(code, r, pair):
    """The pair whose combinations the exact test divides: `mgb_euclid`'s
    basis of M(r), with the decoder pair's ell's."""
    full = mgb_euclid(code, r)
    assert (full.ell1, full.ell2) == (pair.ell1, pair.ell2)
    return full


def exact_message(code, r, f, t):
    """The exact test of one combination at level distance t: -f1/f2 when
    f2 divides f1 (`extract_message`), a message within t of r."""
    if f.f2.is_zero():
        return None
    m = extract_message(f)
    if m is None or m.degree() >= code.k:
        return None
    return m if hamming_distance(code.encode(m), r) == t else None


def zero_set(code, f2):
    """The positions of f2's zeros among the evaluation points."""
    return np.array([i for i, x in enumerate(code.eval_points)
                     if f2.evaluate(x) == 0], dtype=int)


def error_sets(code, r, messages):
    """Each message by the positions where its codeword differs from r."""
    return {tuple(i for i, (c, s) in enumerate(zip(code.encode(m).symbols,
                                                   r.symbols)) if c != s): m
            for m in messages}


def unfiltered_levels(code, r, pair, pairs_of, method, t_cap, j_cap,
                      accepted):
    """The level loop with every pair sent to the exact test; appends
    (t, f2) of each accepted pair to `accepted`."""
    for shape in level_shapes(pair, code.k, t_cap, j_cap):
        found = {}
        for a, b in pairs_of(shape):
            f = combine(pair, a, b)
            m = exact_message(code, r, f, shape.t)
            if m is None:
                continue
            accepted.append((shape.t, f.f2))
            found.setdefault(tuple(m.coeffs), m)
        if found:
            msgs = tuple(sorted(found.values(), key=lambda p: p.coeffs))
            return DecodeOutcome(min_distance=shape.t, messages=msgs,
                                 method=method, search_level=shape.level,
                                 ell1=pair.ell1, ell2=pair.ell2)
    raise RadiusCapExceeded("no codeword", t_cap)


def summary(out):
    return (out.min_distance, out.message_coeff_lists(), out.method,
            out.search_level, out.ell1, out.ell2)


class Comparison:
    """Stands in for `search_levels`: runs the decoder's filtered search and
    the exhaustive one on the same word and basis."""

    def __init__(self):
        self.calls = 0

    def __call__(self, check, pair, zero_sets_of, method, t_cap, j_cap):
        self.calls += 1
        code, r, field = check.code, check.r, pair.g1.field
        accepted = []
        try:
            expected = summary(unfiltered_levels(
                code, r, exact_pair(code, r, pair),
                lambda shape: every_coprime_pair(field, shape), method,
                t_cap, j_cap, accepted))
        except RadiusCapExceeded:
            expected = None
        for t, f2 in accepted:
            zeros = sum(f2.evaluate(x) == 0 for x in code.eval_points)
            assert zeros >= t, (method, t, f2)
        try:
            out = PREFILTERED(check, pair, zero_sets_of, method, t_cap, j_cap)
        except RadiusCapExceeded:
            assert expected is None, method
            raise
        assert summary(out) == expected
        return out


@settings(max_examples=60, deadline=None)
@given(received_words())
def test_prefilter_keeps_every_accepted_pair(case):
    code, word = case
    compare = Comparison()
    with mock.patch.object(division, "search_levels", compare), \
            mock.patch.object(rational, "search_levels", compare):
        for beyond_johnson in (False, True):
            for decode in DECODERS:
                try:
                    decode(code, word, beyond_johnson=beyond_johnson)
                except RadiusCapExceeded:
                    pass
    assert compare.calls == 2 * len(DECODERS)


class FilterExactness:
    """Stands in for `search_levels`: takes every set the zero-count filter
    passes, level by level up to the first that passes any, and asserts
    that each one is the error set of an oracle message and that the level
    is the oracle distance (the proof in the `division` docstring)."""

    def __init__(self, oracle):
        self.oracle = oracle

    def __call__(self, check, pair, zero_sets_of, method, t_cap, j_cap):
        code = check.code
        errors = error_sets(code, check.r, self.oracle.messages)
        for shape in level_shapes(pair, code.k, t_cap, j_cap):
            sets = [tuple(z.tolist()) for z in zero_sets_of(shape)]
            assert all(z in errors for z in sets), (method, shape)
            if sets:
                assert shape.t == self.oracle.min_distance, method
                break
        return PREFILTERED(check, pair, zero_sets_of, method, t_cap, j_cap)


@settings(max_examples=60, deadline=None)
@given(received_words())
def test_prefilter_admits_only_accepted_pairs(case):
    code, word = case
    oracle = code.ml_oracle(word)
    with mock.patch.object(division, "search_levels",
                           FilterExactness(oracle)):
        for decode in (decode_minimal, decode_minimal_reencoded):
            out = decode(code, word, beyond_johnson=True)
            assert out.min_distance == oracle.min_distance


class CheckAgreement:
    """Stands in for `search_levels`: at every level up to the oracle
    distance, sends the zero set of every coprime pair's f2 through the
    candidate check and the pair through the exact test, and asserts that
    both accept with the same message, with the pairs of `exact_pair`,
    whose f2's at each level are those of the decoder's pair; and asserts
    that the check accepts a set of the decoder's own source (so the
    rational fit's too) exactly when it is the error set of an oracle
    message at the level's distance."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.accepted = 0

    def __call__(self, check, pair, zero_sets_of, method, t_cap, j_cap):
        code, r = check.code, check.r
        full = exact_pair(code, r, pair)
        field = pair.g1.field
        distance = self.oracle.min_distance
        errors = error_sets(code, r, self.oracle.messages)
        for shape in level_shapes(pair, code.k, t_cap, j_cap):
            if shape.t > distance:
                break
            pairs = list(every_coprime_pair(field, shape))
            assert {combine(full, a, b).f2 for a, b in pairs} == \
                {combine(pair, a, b).f2 for a, b in pairs}, (method, shape)
            for a, b in pairs:
                f = combine(full, a, b)
                expected = exact_message(code, r, f, shape.t)
                assert check(zero_set(code, f.f2), shape.t) == expected, \
                    (method, shape, a, b)
                self.accepted += expected is not None
            for zeros in zero_sets_of(shape):
                expected = (errors.get(tuple(zeros.tolist()))
                            if shape.t == distance else None)
                assert check(zeros, shape.t) == expected, (method, shape)
                self.accepted += expected is not None
        return PREFILTERED(check, pair, zero_sets_of, method, t_cap, j_cap)


@settings(max_examples=60, deadline=None)
@given(received_words())
def test_candidate_check_matches_exact_test(case):
    code, word = case
    oracle = code.ml_oracle(word)
    for decode in DECODERS:
        agreement = CheckAgreement(oracle)
        with mock.patch.object(division, "search_levels", agreement), \
                mock.patch.object(rational, "search_levels", agreement):
            out = decode(code, word, beyond_johnson=True)
        assert out.min_distance == oracle.min_distance
        assert agreement.accepted > 0, decode.__name__
