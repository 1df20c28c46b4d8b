"""Cohomology-ring model: truncation, characteristic classes, Riemann-Roch."""

from fractions import Fraction

import pytest

from etaforge.cohomology import (
    _MAX_BASE_DIMENSION,
    Geometry,
    char_class,
    hrr_chi,
    index_integral,
    integrate,
    projective_like_geometry,
    surface_geometry,
)
from etaforge.errors import UsageError
from etaforge.scalars import TruncSeries, universal_series


def test_truncation_kills_high_powers():
    u = TruncSeries(3, [0, 1])
    assert (u * u * u * u).coeffs == TruncSeries.constant(0, 3).coeffs
    assert (u * u * u).coeffs[3] == 1


def test_exp_and_apply_series_consistency():
    u = TruncSeries(2, [0, Fraction(3)])
    # exp must agree with applying the exponential series
    exp_series = universal_series("todd", 8)  # any series with the same order
    direct = u.exp()
    assert direct.coeffs[0] == 1
    assert direct.coeffs[1] == 3
    assert direct.coeffs[2] == Fraction(9, 2)
    with pytest.raises(UsageError):
        TruncSeries.constant(1, 2).apply_series(exp_series)


def test_spin_condition_enforced():
    with pytest.raises(UsageError):
        Geometry(
            m=1,
            top_integral=Fraction(1),
            c1L=Fraction(1),
            c1K=Fraction(1),
            tangent_roots=(Fraction(1),),
        )


def test_base_dimension_must_be_positive():
    # m = 0 once gave a confident eta value; no maths may run on it
    with pytest.raises(UsageError, match="at least 1"):
        Geometry(m=0, top_integral=Fraction(1), c1L=Fraction(1), c1K=Fraction(0), tangent_roots=())
    with pytest.raises(UsageError, match="at least 1"):
        projective_like_geometry(-1)


def test_base_dimension_is_capped():
    # the series order 2m + 4 grows with m: m = 80 took seconds per eta value
    cap = _MAX_BASE_DIMENSION
    assert projective_like_geometry(cap).m == cap
    with pytest.raises(UsageError, match="above the limit"):
        projective_like_geometry(cap + 1)
    with pytest.raises(UsageError, match="above the limit"):
        Geometry(
            m=cap + 1, top_integral=Fraction(1), c1L=Fraction(1), c1K=Fraction(-(cap + 1), 2),
            tangent_roots=(Fraction(1),) * (cap + 1),
        )


def test_surface_preset():
    g = surface_geometry(2, 3)
    assert g.m == 1 and g.c1K == 1 and g.tangent_roots == (Fraction(-2),)
    assert integrate(g, TruncSeries(1, [0, 1])) == 1


def test_projective_like_preset():
    g = projective_like_geometry(2)
    assert g.tangent_roots == (Fraction(1), Fraction(1))
    assert g.c1K == Fraction(-1)


def test_todd_class_surface():
    # td(X) = 1 + c1(TX)/2 on a curve; c1(TX) = 2 - 2g
    for genus in (0, 1, 3):
        g = surface_geometry(genus, 1)
        td = char_class(g, "todd")
        assert td.coeffs[0] == 1
        assert td.coeffs[1] == Fraction(2 - 2 * genus, 2)


def test_ahat_degree_two_coefficient():
    # Â = 1 - p1/24 + ... with p1 = sum of squared tangent roots
    g = projective_like_geometry(2)
    ahat = char_class(g, "ahat")
    assert ahat.coeffs[0] == 1
    assert ahat.coeffs[1] == 0
    assert ahat.coeffs[2] == Fraction(-2, 24)
    # single-root oracle: (x/2)/sinh(x/2) = 1 - x^2/24 + 7x^4/5760
    one_root = Geometry(
        m=2,
        top_integral=Fraction(1),
        c1L=Fraction(1),
        c1K=Fraction(-1, 2),
        tangent_roots=(Fraction(1), Fraction(0)),
    )
    ahat1 = char_class(one_root, "ahat")
    assert ahat1.coeffs[2] == Fraction(-1, 24)


def test_hrr_chi_surface_riemann_roch():
    # chi(k) = deg(K ⊗ L^k) + 1 - g = kl on a genus-g curve with K the
    # spin square root (deg K = g - 1)
    for genus in (0, 1, 2):
        for degree in (1, 2, 5):
            g = surface_geometry(genus, degree)
            assert hrr_chi(g) == (Fraction(0), Fraction(degree))


def test_index_integral_surface():
    g = surface_geometry(0, 3)
    assert index_integral(g, Fraction(2)) == Fraction(3 * 4, 2)
    assert index_integral(g, Fraction(1, 2)) == Fraction(3, 8)
    # a signed integral: ∫₀^{-1} 3s ds = 3/2
    assert index_integral(g, Fraction(-1)) == Fraction(3, 2)


def test_index_integral_builds_chi_once_per_geometry(monkeypatch):
    import etaforge.cohomology as coh

    g = projective_like_geometry(3, 2)
    chi = hrr_chi(g)
    calls = []
    monkeypatch.setattr(coh, "char_class", lambda *a: calls.append(a) or char_class(*a))
    coh.hrr_chi.cache_clear()
    for r in (Fraction(-7, 3), Fraction(0), Fraction(1, 2), Fraction(5)):
        direct = sum(c * r ** (a + 1) / (a + 1) for a, c in enumerate(chi))
        assert index_integral(g, r) == direct
    # one ch(K) and one todd class: the χ coefficients are built once
    assert [a[1] for a in calls] == ["ch_line", "todd"]
    assert coh.hrr_chi(g) is coh.hrr_chi(g)


def test_hrr_chi_matches_the_polynomial_in_k():
    """χ(k) = ∫ ch(K⊗L^k)·td at m + 1 integers k pins the degree-m polynomial
    whose coefficients hrr_chi reads off ch(K)·td."""
    for g in (
        projective_like_geometry(2, 1),
        projective_like_geometry(4, 3),
        Geometry(3, Fraction(2), Fraction(3, 2), Fraction(-1),
                 (Fraction(1), Fraction(2, 3), Fraction(1, 3))),
    ):
        td = char_class(g, "todd")
        for k in range(-2, g.m):
            line = TruncSeries(g.m, [0, g.c1K + k * g.c1L])
            direct = integrate(g, char_class(g, "ch_line", line) * td)
            assert sum(c * k**a for a, c in enumerate(hrr_chi(g))) == direct


def test_hrr_chi_integer_valued_on_abelian_like():
    # flat tangent roots: chi(k) = k^2 c1L^2 top/2, an integer for even top
    g = Geometry(
        m=2,
        top_integral=Fraction(2),
        c1L=Fraction(1),
        c1K=Fraction(0),
        tangent_roots=(Fraction(0), Fraction(0)),
    )
    chi = hrr_chi(g)
    for k in range(-3, 4):
        assert sum(c * k**a for a, c in enumerate(chi)) == k * k
