"""The built-in libraries build the elements they always built.

The golden (``element_digests.json`` beside this file) holds the
:func:`~repro.mapping.cache.element_digest` of every element of
``full_library()``, recorded when each linear element's rows were built
term by term from dense exponent tuples.  Element digests key every
cache line, so a faster construction must reproduce them exactly.

The golden is an oracle: regenerate it only for a change that is meant
to move an element, with
``PYTHONPATH=src python tests/library/test_builtin_digests.py``.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.library import formal_inputs, full_library
from repro.library.builtin import _linear_rows
from repro.mapping.cache import element_digest
from repro.mp3.tables import IMDCT_COS_36, POLYPHASE_N
from repro.symalg import Polynomial
from repro.workload import kernels as wk

GOLDEN = Path(__file__).with_name("element_digests.json")


def element_digests() -> dict:
    """``{element name: element_digest}`` over the full library."""
    return {element.name: element_digest(element) for element in full_library()}


def _dense_rows(matrix: np.ndarray) -> tuple:
    """The rows built term by term, one full exponent tuple per column."""
    n_out, n_in = matrix.shape
    formals = formal_inputs(n_in)
    rows = []
    for i in range(n_out):
        terms = {}
        for k in range(n_in):
            exps = tuple(1 if j == k else 0 for j in range(n_in))
            terms[exps] = Fraction(float(matrix[i, k]))
        rows.append(Polynomial(formals, terms))
    return tuple(rows)


def test_every_element_digest_matches_the_golden():
    assert element_digests() == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("matrix", [
    IMDCT_COS_36,
    POLYPHASE_N,
    wk.fir_matrix(wk.fir_taps()),
    wk.idct_basis(),
    wk.xcorr_taps().reshape(1, -1),
    np.array([[0.0, 0.5, -0.0], [0.0, 0.0, 0.0], [1.0, 0.0, -3.25]]),
], ids=["imdct", "polyphase", "fir", "idct_basis", "xcorr", "sparse"])
def test_linear_rows_equal_the_dense_construction(matrix):
    rows = _linear_rows(matrix)
    dense = _dense_rows(matrix)
    assert rows == dense
    assert [row.variables for row in rows] == [row.variables for row in dense]
    # Same term order too, so code that walks the terms sees no change.
    assert [list(row.terms) for row in rows] == \
        [list(row.terms) for row in dense]
    assert [row.content_digest() for row in rows] == \
        [row.content_digest() for row in dense]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(element_digests(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
