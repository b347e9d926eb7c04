"""The benchmark's tracer still installs, and its counters hold still.

`perfbench/tracing.py` wraps decoder internals at fixed module attributes; a
rename in the package breaks the traced benchmark run, and this test fails
with it.  The counters are pinned on the two GF(7) worked examples.
"""

import importlib.util
from pathlib import Path

import pytest

import rsmld

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
F7 = rsmld.Field(7)
ONE_ERROR = (5, (3, 2, 6, 3, 4, 2, 4), 1)   # k, symbols, distance
TWO_ERRORS = (4, (3, 2, 6, 3, 2, 2, 4), 2)


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


# decoder, word, (candidates, verifications, constraints, factor pairs)
CASES = [
    (rsmld.decode_minimal, ONE_ERROR, (1, 1, 0, 0)),
    (rsmld.decode_minimal, TWO_ERRORS, (3, 3, 0, 0)),
    (rsmld.decode_minimal_reencoded, ONE_ERROR, (1, 1, 0, 0)),
    (rsmld.decode_minimal_reencoded, TWO_ERRORS, (3, 3, 0, 0)),
    (rsmld.decode_rational, ONE_ERROR, (1, 1, 0, 0)),
    (rsmld.decode_rational, TWO_ERRORS, (0, 3, 7, 3)),
]


@pytest.mark.parametrize("decode, word, pinned", CASES,
                         ids=[f"{d.__name__}-k{w[0]}" for d, w, _ in CASES])
def test_trace_counters(decode, word, pinned):
    k, symbols, distance = word
    code = rsmld.RSCode(F7, 7, k)
    originals = (rsmld.division.combine, rsmld.rational.koetter_interpolate,
                 rsmld.RSCode.encode)
    tracer = load_tracer()
    tracer.install(rsmld)
    try:
        out = tracer.decode(decode, code, rsmld.Word(code, symbols))
    finally:
        tracer.uninstall()
    assert (rsmld.division.combine, rsmld.rational.koetter_interpolate,
            rsmld.RSCode.encode) == originals
    assert out.min_distance == distance
    assert (tracer.count["division.candidates"],
            tracer.count["code.verifications"],
            tracer.count["bivar.constraints"],
            tracer.count["rational.factor_pairs"]) == pinned
