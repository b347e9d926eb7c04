"""Functions that only the tests call, kept out of the package: the
generating pair of a word's interpolation module, and a code's classical
unique-decoding radius."""

from rsmld.code import RSCode
from rsmld.groebner import (ModuleVector, _generator_rows, _vector,
                            interpolant)


def interpolation_generators(code: RSCode,
                             r) -> tuple[ModuleVector, ModuleVector]:
    """The generating pair (Pi, 0), (L, -1) of M(r); Pi and the matrix that
    interpolates a word are the code's (`RSCode.constants`)."""
    rows = _generator_rows(code, code.constants().vanishing,
                           interpolant(code, r))
    return tuple(_vector(code.field, row) for row in rows)


def classical_radius(code: RSCode) -> int:
    """Largest t with unique decoding guaranteed: t < d/2."""
    return (code.d - 1) // 2
