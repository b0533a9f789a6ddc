"""Known answers for the benchmark's own reference values.

    python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest
from scipy import integrate

import reference as ref


def test_expected_kfacets_of_three_points_on_a_line():
    # E e_0(3, 1) = 2: the two extreme points; E e_1(3, 1) = 1: the middle one
    expected = math.comb(3, 1) * ref.kfacet_probabilities(3, 1)
    assert expected == pytest.approx([2.0, 1.0, 2.0], rel=1e-12)


@pytest.mark.parametrize("n,d", [(7, 2), (10, 4), (30, 10), (221, 160)])
def test_kfacet_probabilities_sum_and_symmetry(n, d):
    p = ref.kfacet_probabilities(n, d)
    m = n - d
    assert p == pytest.approx(p[::-1], rel=1e-12)
    balanced = p[m // 2] if m % 2 == 0 else 0.0
    assert p.sum() + balanced == pytest.approx(2.0, rel=1e-12)


def test_kfacet_probability_matches_adaptive_quadrature():
    n, d, k = 12, 5, 2
    m = n - d
    f = lambda y: (math.comb(m, k) * (0.5 * math.erfc(-y / math.sqrt(2))) ** k
                   * (0.5 * math.erfc(y / math.sqrt(2))) ** (m - k)
                   * math.exp(-d * y * y / 2))
    value = 2 * math.sqrt(d / (2 * math.pi)) * integrate.quad(f, -12, 12,
                                                              epsrel=1e-13)[0]
    assert ref.kfacet_probabilities(n, d)[k] == pytest.approx(value, rel=1e-10)


def test_dot_density_is_uniform_for_d3():
    w = np.linspace(-0.99, 0.99, 11)
    assert ref.dot_density(w, 3) == pytest.approx(np.full(11, 0.5), rel=1e-14)


@pytest.mark.parametrize("d", [3, 4, 8])
def test_dot_moments_integrate_the_density(d):
    m2, m4 = ref.dot_moments(d)
    for power, target in ((2, m2), (4, m4)):
        value = integrate.quad(lambda w: w ** power * ref.dot_density(w, d),
                               -1, 1, epsrel=1e-12)[0]
        assert value == pytest.approx(target, rel=1e-9)


def test_gaussian_simplex_volume_in_one_dimension():
    # E|X1 - X0| for standard normals is E|N(0, 2)| = 2 / sqrt(pi)
    assert ref.gaussian_simplex_volume(1) == pytest.approx(2 / math.sqrt(math.pi))


@pytest.mark.parametrize("family,x2", [("uniform", 1 / 3), ("gaussian", 1.0),
                                       ("laplace", 2.0)])
def test_abs_moments_by_quadrature(family, x2):
    density = {"uniform": lambda x: 0.5 * (abs(x) <= 1),
               "gaussian": lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
               "laplace": lambda x: 0.5 * math.exp(-abs(x))}[family]
    lo, hi = (-1, 1) if family == "uniform" else (-40, 40)
    first = integrate.quad(lambda x: abs(x) * density(x), lo, hi, points=[0])[0]
    second = integrate.quad(lambda x: x * x * density(x), lo, hi, points=[0])[0]
    assert ref.abs_moment(family) == pytest.approx(first, rel=1e-9)
    assert second == pytest.approx(x2, rel=1e-9)


def test_truncated_gaussian_abs_moment():
    c = math.sqrt(2 / math.pi)  # X = c - |Z|, |Z| half-normal
    value = integrate.quad(lambda u: abs(c - u) * 2 * math.exp(-u * u / 2)
                           / math.sqrt(2 * math.pi), 0, 40, points=[c])[0]
    assert ref.abs_moment("truncated-gaussian") == pytest.approx(value, rel=1e-9)


def test_lp_value_by_quadrature():
    for p in (10, 100):
        phi_p = integrate.quad(lambda y: (math.exp(-y * y / 2)
                                          / math.sqrt(2 * math.pi)) ** p,
                               -12, 12, epsabs=0, epsrel=1e-12)[0]
        assert ref.lp_value(p) == pytest.approx(phi_p ** (1 / p), rel=1e-9)


def test_growth_base_at_two_and_a_half_is_four():
    # the objective peaks at y = 0 with value phi(0) / 2
    c = float(ref.c_objective(0.0, 2.0, 0.5))
    assert c == pytest.approx(ref.c_grid_max(2.0, 0.5), rel=1e-12)
    assert ref.growth_base(2.0, 0.5, c) == pytest.approx(4.0, rel=1e-12)


def test_estranged_plus_plus_kernel_peaks_at_a_quarter():
    assert float(ref.estranged_kernel(0.0, 0.0, 0.0, "+", "+")) == 0.25
    assert ref.estranged_grid_max("+", "+", nodes=31) == pytest.approx(0.25)


def test_reduced_kernel_is_the_minus_minus_diagonal():
    rho, w = 0.7, 0.3
    assert float(ref.estranged_reduced_kernel(rho, w)) == pytest.approx(
        float(ref.estranged_kernel(rho, rho, w, "-", "-")), rel=1e-14)
