"""Every decoder against the exhaustive oracle on random small codes."""

from hypothesis import given, settings, strategies as st

from rsmld.code import RSCode, Word
from rsmld.division import (RadiusCapExceeded, decode_minimal,
                            decode_minimal_reencoded, search_radius_cap)
from rsmld.fields import Field
from rsmld.rational import decode_rational

FIELDS = [Field(5), Field(7), Field(2, 2), Field(2, 3), Field(2, 3, 0b1101)]
DECODERS = [decode_minimal, decode_minimal_reencoded, decode_rational]


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
