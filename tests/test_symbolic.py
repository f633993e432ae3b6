"""Symbolic oracle for the consistency coefficients.

Each pair is composed from the paper's first differences in sympy, on the
five points -(h0+h1), -h1, 0, h2, h2+h3 sampled from a quartic Taylor
polynomial with free coefficients c_q = f^(q)(0).  The composed value is
linear in the c_q, so its derivative in c_2 is the leading coefficient and
in c_3 the f''' coefficient, in closed form.  The corrected stencil d2 is
(d+ - d-) / ((h1 + h2) / 2) on the same samples.  The library computes both
coefficients as Taylor moments of its weight stencil; the two derivations
share no code.
"""

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from nufd import ALL_SECOND_SPECS, D2_CORRECTED, consistency_coefficient

H = sp.symbols("h0:4", positive=True)
C = sp.symbols("c0:5")
POINTS = {-2: -(H[0] + H[1]), -1: -H[1], 0: sp.Integer(0), 1: H[2], 2: H[2] + H[3]}


def _difference(kind, u):
    """The first difference ``kind`` of {index: value} wherever it is defined."""
    t = POINTS
    out = {}
    for j in u:
        if kind == "d+" and j + 1 in u:
            out[j] = (u[j + 1] - u[j]) / (t[j + 1] - t[j])
        elif kind == "d-" and j - 1 in u:
            out[j] = (u[j] - u[j - 1]) / (t[j] - t[j - 1])
        elif kind == "c" and j - 1 in u and j + 1 in u:
            out[j] = (u[j + 1] - u[j - 1]) / (t[j + 1] - t[j - 1])
    return out


@pytest.fixture(scope="module")
def closed_forms():
    """{operator: (leading, fppp)} as functions of (h0, h1, h2, h3) in mpmath."""
    samples = {j: sum(C[q] * x**q / sp.factorial(q) for q in range(5)) for j, x in POINTS.items()}
    forms = {}
    for spec in ALL_SECOND_SPECS:
        value = _difference(spec.outer.value, _difference(spec.inner.value, samples))[0]
        leading, fppp = (sp.factor(sp.cancel(sp.diff(value, C[q]))) for q in (2, 3))
        assert leading.subs({h: 1 for h in H}) == 1
        forms[str(spec)] = tuple(sp.lambdify(H, e, modules="mpmath") for e in (leading, fppp))
    # d2, the jump d+ - d- over the mean step, is consistent on every mesh:
    # leading coefficient exactly 1, f''' coefficient (h_k - h_{k-1}) / 3
    d2 = (_difference("d+", samples)[0] - _difference("d-", samples)[0]) / ((H[1] + H[2]) / 2)
    leading, fppp = (sp.cancel(sp.diff(d2, C[q])) for q in (2, 3))
    assert leading == 1 and sp.simplify(fppp - (H[2] - H[1]) / 3) == 0
    forms["d2"] = tuple(sp.lambdify(H, e, modules="mpmath") for e in (leading, fppp))
    return forms


def test_moment_form_matches_the_symbolic_composition(closed_forms):
    rng = np.random.default_rng(2718)
    with mp.workdps(40):
        for spec in (*ALL_SECOND_SPECS, D2_CORRECTED):
            leading_of, fppp_of = closed_forms[str(spec)]
            for _ in range(200):
                steps = tuple(float(h) for h in rng.uniform(0.5, 1.5, 4))
                exact = [mp.mpf(h) for h in steps]
                report = consistency_coefficient(spec, steps)
                leading, fppp = float(leading_of(*exact)), float(fppp_of(*exact))
                assert abs(report.leading_coefficient - leading) <= 1e-12 * abs(leading), spec
                assert abs(report.fppp_coefficient - fppp) <= 1e-12 * max(1.0, abs(fppp)), spec
