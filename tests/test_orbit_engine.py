"""The one exact orbit step, poly._PairMap, against Fraction arithmetic, and
orbit statuses and height reports against outputs recorded from the
Fraction-stepping loops it replaced."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from juliareal.heights import height_report
from juliareal.lattes import (SingularCurveError, WeierstrassCurve, _duplication_polys,
                              duplication_lattes, rational_orbit_status)
from juliareal.orbit import orbit_status
from juliareal.poly import Polynomial, _PairMap, poly_from_json, sylvester_resultant

GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "orbit_golden.json").read_text())

SMOOTH = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12])
COEFF = st.builds(Fraction, st.integers(-9, 9), SMOOTH)
NONZERO = st.builds(Fraction, st.integers(-9, 9).filter(bool), SMOOTH)


def fraction_step(num, den, x):
    """num(x) / den(x) in Fractions; None is the point at infinity."""
    if x is None:
        if num.degree > den.degree:
            return None
        return Fraction(num.lead) / den.lead if num.degree == den.degree else Fraction(0)
    d = den(x)
    return None if d == 0 else Fraction(num(x)) / d


def assert_steps_agree(num, den, x, steps):
    step = _PairMap(num, den)
    pair = (1, 0) if x is None else (x.numerator, x.denominator)
    for _ in range(steps):
        x = fraction_step(num, den, x)
        pair = step(*pair)
        assert pair == ((1, 0) if x is None else (x.numerator, x.denominator))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(COEFF, min_size=2, max_size=4), NONZERO, COEFF, st.integers(1, 5))
@example([Fraction(1, 4), Fraction(-3, 2)], Fraction(6), Fraction(5, 8), 4)
# an orbit that lands on 0
@example([Fraction(-1, 3), Fraction(0)], Fraction(3), Fraction(1, 3), 2)
def test_polynomial_step_equals_fractions(low, lead, x, steps):
    p = Polynomial(low + [lead])
    assert_steps_agree(p, Polynomial([1]), x, steps)
    # a polynomial fixes the pole
    assert_steps_agree(p, Polynomial([1]), None, 2)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(COEFF, COEFF, COEFF, COEFF, st.booleans(), st.integers(1, 3))
@example(Fraction(0), Fraction(-1), Fraction(0), Fraction(1), True, 3)
def test_duplication_step_equals_fractions(r, s, t, x, at_root, steps):
    # F = (X - r)(X^2 + s X + t) has the rational root r, a pole of the map
    try:
        curve = WeierstrassCurve(s - r, t - r * s, -r * t)
    except SingularCurveError:
        assume(False)
    num, den = _duplication_polys(curve)
    assert_steps_agree(num, den, r if at_root else x, steps)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(COEFF, min_size=2, max_size=4), NONZERO, NONZERO)
def test_polynomial_resultant_in_closed_form(low, lead, den):
    # Res(G, h Z^d) = +-(h g_d)^d, taken without a determinant
    step = _PairMap(Polynomial(low + [lead]), Polynomial([den]))
    assert step.R == abs(sylvester_resultant(step.G, step.H))


@pytest.mark.parametrize("case", GOLDEN["orbit_status"], ids=lambda c: c["what"])
def test_orbit_status_golden(case):
    p = poly_from_json(case["poly"])
    assert orbit_status(p, Fraction(case["alpha"]), case["max_steps"]).to_json() == case["json"]


@pytest.mark.parametrize("case", GOLDEN["rational_orbit_status"], ids=lambda c: c["what"])
def test_rational_orbit_status_golden(case):
    curve = WeierstrassCurve(*(Fraction(v) for v in case["curve"].split(",")))
    status = rational_orbit_status(duplication_lattes(curve), Fraction(case["alpha"]),
                                   case["max_steps"])
    assert status.to_json() == case["json"]


@pytest.mark.parametrize("case", GOLDEN["height_report"],
                         ids=lambda c: f"{c['poly']}@{c['x']}")
def test_height_report_golden(case):
    values = height_report(poly_from_json(case["poly"]), Fraction(case["x"]), case["n"])
    assert list(values) == case["values"]
