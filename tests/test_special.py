"""Bessel-K and Euler-Mascheroni checks against independent oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from pideq import bessel_k0, bessel_k1, euler_gamma, eigenvalue

# frozen from the integral representations K0(x) = int_0^inf e^{-x cosh t} dt
# and K1(x) = int_0^inf e^{-x cosh t} cosh t dt (adaptive quadrature)
K0_AT_1 = 0.421024438240705
K1_AT_1 = 0.601907230197235


def quad_k0(x):
    val, _ = quad(lambda t: math.exp(-x * math.cosh(t)), 0, 40.0 / max(x, 1.0) + 5, limit=300)
    return val


def gamma_oracle(n=200):
    """Euler-Maclaurin acceleration of H_n - ln n."""
    h = sum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 1 / (2 * n) + 1 / (12 * n**2) - 1 / (120 * n**4) + 1 / (252 * n**6)


def test_k0_at_one_vs_quadrature():
    assert abs(bessel_k0(1.0) - K0_AT_1) < 1e-12
    assert abs(bessel_k0(1.0) - quad_k0(1.0)) < 1e-11


def test_k0_k1_match_scipy():
    # the numpy series (x <= 2) and trapezoid rule (x > 2) against the cephes
    # routines, densely around the switch at x = 2
    from scipy import special as sp

    xs = np.concatenate([np.geomspace(1e-4, 700.0, 20001), np.linspace(1.9, 2.1, 2001)])
    for ours, ref in ((bessel_k0, sp.k0), (bessel_k1, sp.k1)):
        want = ref(xs)
        assert np.max(np.abs(ours(xs) - want) / want) <= 1e-14


def test_k1_at_one_vs_quadrature():
    assert abs(bessel_k1(1.0) - K1_AT_1) < 1e-12


@pytest.mark.parametrize("x", [2.5, 7.0, 20.0])
def test_k0_quadrature_oracle_other_points(x):
    assert abs(bessel_k0(x) - quad_k0(x)) < 1e-12 * quad_k0(x) + 1e-15


def test_k0_small_argument_log_behaviour():
    for x in (1e-4, 1e-6):
        resid = bessel_k0(x) - (-math.log(x / 2.0) - euler_gamma())
        assert abs(resid) < 5.0 * x**2 * abs(math.log(x)) + 1e-12


def test_k0_strictly_decreasing():
    xs = np.geomspace(1e-3, 30, 50)
    vals = bessel_k0(xs)
    assert np.all(np.diff(vals) < 0)
    assert bessel_k0(2.0) < bessel_k0(1.0)


def test_k1_dominates_k0():
    xs = np.geomspace(1e-3, 50, 80)
    assert np.all(bessel_k1(xs) > bessel_k0(xs))


def test_k1_over_k0_tends_to_one():
    ratios = [bessel_k1(x) / bessel_k0(x) for x in (5.0, 20.0, 100.0)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert abs(ratios[2] - 1.0) < 6e-3


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 3.0, 10.0])
def test_derivative_identity_second_order(x):
    # (K0(x+h) - K0(x-h)) / 2h + K1(x) = O(h^2)
    errs = []
    for h in (1e-3, 1e-4):
        cd = (bessel_k0(x + h) - bessel_k0(x - h)) / (2 * h)
        errs.append(abs(cd + bessel_k1(x)))
    # truncation constant ~ |K0'''|/6 ~ 1/(3 x^3) for small x
    assert errs[0] < 1e-6 * (1.0 / x**3 + 1.0)
    # Richardson: one decade in h gains about two decades in error
    assert errs[1] < errs[0] / 20 + 1e-11


def test_domain_errors():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            bessel_k0(bad)
        with pytest.raises(ValueError):
            bessel_k1(bad)


def test_euler_gamma_digits():
    assert abs(euler_gamma() - gamma_oracle()) < 5e-15
    assert 0.5 < euler_gamma() < 0.6


def test_euler_gamma_eigenvalue_consistency():
    assert abs(4.0 * math.exp(-2.0 * euler_gamma()) - eigenvalue(0.0)) < 1e-14
    assert abs(eigenvalue(0.0) - 1.2609470067487736) < 1e-12
