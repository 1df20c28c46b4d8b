"""Limit spectral measure: lattice structure, Laplace identity, near-zero mass."""

import itertools
import math

import mpmath
import pytest

from etaforge.errors import UsageError
from etaforge.measure import (
    _MAX_LATTICE_POINTS,
    ModelPoint,
    _gamma_p,
    _lattice,
    check_lattice_size,
    laplace_check,
    near_zero_bound,
)

CONFIGS = (
    ModelPoint(1, ()),
    ModelPoint(3, (1.0,)),
    ModelPoint(5, (1.0, 2.0)),
)


def test_model_point_validation():
    # 2·2 + 1 > 3 in the third; the weight overflows in the last
    for n, lambdas in ((2, ()), (3, (-1.0,)), (3, (1.0, 2.0)), (601, ())):
        with pytest.raises(UsageError):
            ModelPoint(n, lambdas)
        with pytest.raises(UsageError):
            ModelPoint(n=n, lambdas=lambdas)
        with pytest.raises(UsageError):
            ModelPoint(n, lambdas=lambdas)
    pt = ModelPoint(5, (1.0, 2.0))
    assert pt.m_y == 2 and pt.n_y == 0
    assert pt == ModelPoint(lambdas=(1.0, 2.0), n=5)


@pytest.mark.parametrize("n, lambdas", [(601, ()), (345, ()), (301, (1.0,)), (5, (1e200, 1e200))])
def test_point_whose_weight_overflows_is_refused(n, lambdas):
    with pytest.raises(UsageError, match="positive finite"):
        ModelPoint(n, lambdas)


def test_weight_normalization():
    pt = ModelPoint(3, (2.0,))
    expected = 2.0 / ((4 * math.pi) ** 1.5 * math.gamma(0.5))
    assert abs(pt.weight() - expected) < 1e-15


def test_lattice_enumeration_matches_brute_force():
    pt = ModelPoint(5, (1.0, 2.0))
    got = sorted(_lattice(pt, 10.0))
    expected = sorted(
        (2 * a * 1.0 + 2 * b * 2.0, (a > 0) + (b > 0))
        for a in range(6)
        for b in range(3)
        if 2 * a + 4 * b <= 10.0
    )
    assert got == expected


def test_flat_point_laplace_exact():
    # no rotation: measure is weight·s^{-1/2} ds, Laplace transform
    # weight·Γ(1/2)/√t = (4πt)^{-n/2}
    for n in (1, 3, 5):
        pt = ModelPoint(n, ())
        for t in (0.5, 1.0, 2.0):
            chk = laplace_check(pt, t, 200.0 / t)
            assert chk.rel_error < 1e-9, (n, t, chk.rel_error)


def test_laplace_identity_three_configs():
    for pt in CONFIGS:
        for t in (0.5, 1.0, 2.0):
            chk = laplace_check(pt, t, 80.0 / t)
            assert chk.rel_error < 1e-6, (pt, t, chk.rel_error)
            # the truncation tail bound really bounds the discrepancy
            assert abs(chk.measured - chk.target) <= abs(chk.tail_bound) + 1e-9


def test_tail_bound_controls_coarse_truncation():
    pt = ModelPoint(3, (1.0,))
    chk = laplace_check(pt, 1.0, 6.0)
    assert abs(chk.measured - chk.target) <= abs(chk.tail_bound) + 1e-12
    assert chk.tail_bound > 1e-6  # the truncation genuinely matters here


def test_near_zero_ratio_bounded():
    for pt in CONFIGS:
        ratios = [
            near_zero_bound(pt, eps).ratio for eps in (0.25, 0.0625, 0.015625)
        ]
        assert all(r > 0 for r in ratios)
        assert max(ratios) <= 1.0
        assert max(ratios) <= min(ratios) * (1 + 1e-9)  # exact √ε scaling here


def test_apply_validates_arguments():
    pt = ModelPoint(1, ())
    with pytest.raises(UsageError):
        laplace_check(pt, 1.0, 0.0)
    with pytest.raises(UsageError):
        near_zero_bound(pt, 2.0)
    with pytest.raises(UsageError):
        laplace_check(pt, -1.0, 10.0)


def test_gamma_p_matches_mpmath():
    xs = [10 ** (e / 4) for e in range(-24, 9)] + [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5]
    with mpmath.workdps(30):
        for n in range(5):
            for x in xs:
                exact = mpmath.gammainc(n + mpmath.mpf(1) / 2, 0, x, regularized=True)
                assert abs(_gamma_p(n, x) - exact) <= 1e-13 * exact, (n, x)


def _reference_apply(pt, phi, s_max, breaks=()):
    """The limit measure applied to phi by mpmath quadrature of its definition,
    weight·Σ 2^Z ∫_o^s_max φ(s)(s - o)^{n_y - 1/2} ds over a brute-force lattice,
    with u = √(s - o) so that no integrand is singular; breaks are the points
    where phi has a kink.  Call it inside mpmath.workdps."""
    by_offset = {}
    ranges = [range(int(s_max / (2 * lam)) + 2) for lam in pt.lambdas]
    for ks in itertools.product(*ranges):
        offset = 2 * sum(mpmath.mpf(k) * lam for k, lam in zip(ks, pt.lambdas))
        if offset < s_max:
            by_offset[offset] = by_offset.get(offset, 0) + 2 ** sum(k > 0 for k in ks)
    total = mpmath.mpf(0)
    for offset, mult in by_offset.items():
        cuts = [0] + [mpmath.sqrt(b - offset) for b in breaks if offset < b < s_max]
        integral = mpmath.quad(
            lambda u: 2 * phi(offset + u * u) * u ** (2 * pt.n_y),
            cuts + [mpmath.sqrt(s_max - offset)],
        )
        total += mult * integral
    weight = mpmath.fprod(pt.lambdas) / (
        (4 * mpmath.pi) ** (mpmath.mpf(pt.n) / 2) * mpmath.gamma(pt.n_y + mpmath.mpf(1) / 2)
    )
    return weight * total


# the default points, points with n_y = 1 and 2, and two points with more than
# one lattice offset below the largest near-zero support ε = 1/2: 0 and 0.3
# for λ = 0.15, and 0, 0.2, 0.3 and 0.4 for λ = (0.1, 0.15)
MPMATH_POINTS = CONFIGS + (
    ModelPoint(5, (0.6,)),
    ModelPoint(7, (1.5,)),
    ModelPoint(3, (0.15,)),
    ModelPoint(5, (0.1, 0.15)),
)


@pytest.mark.parametrize("pt", MPMATH_POINTS, ids=lambda pt: f"n{pt.n}-{pt.lambdas}")
def test_laplace_matches_mpmath_quadrature(pt):
    for t, s_max in ((0.5, 160.0), (1.0, 80.0), (2.0, 40.0), (1.0, 6.0)):
        if min(pt.lambdas, default=1.0) < 0.5:
            # a small lattice, and an s_max off it: a kernel (s - o)^{-1/2}
            # starting one rounding error below s_max weighs about 1e-8
            s_max = min(s_max, 2.95)
        chk = laplace_check(pt, t, s_max)
        with mpmath.workdps(30):
            exact = _reference_apply(pt, lambda s: mpmath.exp(-t * s), s_max)
        assert abs(chk.measured - exact) <= 1e-10 * exact, (t, s_max)


@pytest.mark.parametrize("pt", MPMATH_POINTS, ids=lambda pt: f"n{pt.n}-{pt.lambdas}")
def test_near_zero_matches_mpmath_quadrature(pt):
    for eps in (0.5, 0.25, 0.0625, 0.015625):
        def bump(s):
            return 1 if s <= eps / 2 else 2 * (1 - s / eps)

        value = near_zero_bound(pt, eps).value
        with mpmath.workdps(30):
            exact = _reference_apply(pt, bump, eps, breaks=(eps / 2,))
        assert abs(value - exact) <= 1e-10 * exact, eps


def test_huge_lattice_is_refused_before_enumeration():
    pt = ModelPoint(3, (0.5,))  # one lattice point per unit of s_max
    check_lattice_size(pt, _MAX_LATTICE_POINTS - 1.0)
    with pytest.raises(UsageError):
        check_lattice_size(pt, float(_MAX_LATTICE_POINTS))
    with pytest.raises(UsageError):
        laplace_check(ModelPoint(5, (0.001, 0.001)), 0.5, 160.0)
    with pytest.raises(UsageError):
        check_lattice_size(pt, math.inf)
