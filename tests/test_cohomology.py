"""Cohomology-ring model: truncation, characteristic classes, Riemann-Roch."""

import math
from fractions import Fraction

import pytest

from etaforge.cohomology import (
    _MAX_BASE_DIMENSION,
    Geometry,
    ahat_class,
    ahat_series,
    hrr_chi,
    index_integral,
    integrate,
    projective_like_geometry,
    surface_geometry,
)
from etaforge.errors import UsageError
from etaforge.scalars import TruncSeries, exp_series


def _compose(series, x, order):
    """series(x·u) truncated at u^order, by summing powers of x·u: the
    reference for the power-sum classes, which never compose series."""
    arg = TruncSeries(order, [0, x])
    result = TruncSeries(order, [series.coeffs[0]])
    power = TruncSeries(order, [1])
    for n in range(1, order + 1):
        power = power * arg
        result = result + power.scale(series.coeffs[n])
    return result


def _per_root_product(series, roots, order):
    """Πᵢ series(xᵢu), truncated at u^order."""
    result = TruncSeries(order, [1])
    for x in roots:
        result = result * _compose(series, x, order)
    return result


def _reciprocal(coeffs):
    """1 / Σ cₙ zⁿ by long division, to as many terms as coeffs has."""
    inv = []
    for n in range(len(coeffs)):
        acc = Fraction(1 if n == 0 else 0) - sum(inv[i] * coeffs[n - i] for i in range(n))
        inv.append(acc / coeffs[0])
    return inv


def _ahat_factor(order):
    """(z/2)/sinh(z/2) = 1 / Σ z^{2k} / (4^k (2k+1)!), truncated at order."""
    return TruncSeries(order, _reciprocal([
        Fraction(1, 4 ** (n // 2) * math.factorial(n + 1)) if n % 2 == 0 else 0
        for n in range(order + 1)
    ]))


def _todd_factor(order):
    """z/(1 - e^{-z}) = 1 / Σ (-z)^n / (n+1)!, truncated at order."""
    return TruncSeries(order, _reciprocal([
        Fraction((-1) ** n, math.factorial(n + 1)) for n in range(order + 1)
    ]))


def test_truncation_kills_high_powers():
    u = TruncSeries(3, [0, 1])
    assert (u * u * u * u).coeffs == TruncSeries(3, [0]).coeffs
    assert (u * u * u).coeffs[3] == 1


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
    # an input bound: the classes are series of order m + 1 at most, but m
    # also sizes every Hodge and spectrum loop, so it stays bounded
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


def test_ahat_degree_two_coefficient():
    # Â = 1 - p1/24 + ... with p1 = sum of squared tangent roots
    g = projective_like_geometry(2)
    ahat = ahat_class(g)
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
    ahat1 = ahat_class(one_root)
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


def test_index_integral_builds_chi_once_per_geometry():
    import etaforge.cohomology as coh

    g = projective_like_geometry(3, 2)
    chi = hrr_chi(g)
    coh.hrr_chi.cache_clear()
    coh.ahat_class.cache_clear()
    others = [projective_like_geometry(2), surface_geometry(1, 3)]
    for geometry in (g, *others):
        for r in (Fraction(-7, 3), Fraction(0), Fraction(1, 2), Fraction(5)):
            index_integral(geometry, r)
    for r in (Fraction(-7, 3), Fraction(0), Fraction(1, 2), Fraction(5)):
        direct = sum(c * r ** (a + 1) / (a + 1) for a, c in enumerate(chi))
        assert index_integral(g, r) == direct
    # one Â class per geometry: the χ coefficients are built once
    assert coh.ahat_class.cache_info().misses == 3
    assert coh.hrr_chi.cache_info().misses == 3
    assert coh.hrr_chi(g) is coh.hrr_chi(g)


def test_a_separately_built_equal_geometry_hits_the_cache():
    """Geometry is a value: an equal copy compares and hashes equal, so the
    per-geometry caches serve it."""
    first, second = surface_geometry(2, 3), surface_geometry(2, 3)
    assert first is not second and first == second and hash(first) == hash(second)
    chi = hrr_chi(first)
    hits = hrr_chi.cache_info().hits
    assert hrr_chi(second) is chi
    assert hrr_chi.cache_info().hits == hits + 1


_GEOMETRY_FIELDS = ("m", "top_integral", "c1L", "c1K", "tangent_roots")


@pytest.mark.parametrize("fields", [
    (0, Fraction(1), Fraction(1), Fraction(0), ()),
    (_MAX_BASE_DIMENSION + 1, Fraction(1), Fraction(1), Fraction(0), ()),
    (1, Fraction(1), Fraction(1), Fraction(-1), (Fraction(1), Fraction(1))),
    (1, Fraction(1), Fraction(1), Fraction(0), (Fraction(1),)),
], ids=["m_zero", "m_above_limit", "root_count", "spin"])
def test_geometry_refuses_bad_fields_by_position_and_by_keyword(fields):
    for args, kwargs in (
        (fields, {}),
        ((), dict(zip(_GEOMETRY_FIELDS, fields))),
        (fields[:2], dict(zip(_GEOMETRY_FIELDS[2:], fields[2:]))),
    ):
        with pytest.raises(UsageError):
            Geometry(*args, **kwargs)
    good = (1, Fraction(1), Fraction(1), Fraction(-1), (Fraction(2),))
    assert Geometry(*good) == Geometry(**dict(zip(_GEOMETRY_FIELDS, good)), label="")


def test_hrr_chi_matches_the_polynomial_in_k():
    """χ(k) = ∫ ch(K⊗L^k)·td at m + 1 integers k pins the degree-m polynomial
    whose coefficients hrr_chi reads off Â; td is the per-root product of the
    Todd series, built here by long division."""
    for g in (
        projective_like_geometry(2, 1),
        projective_like_geometry(4, 3),
        Geometry(3, Fraction(2), Fraction(3, 2), Fraction(-1),
                 (Fraction(1), Fraction(2, 3), Fraction(1, 3))),
    ):
        td = _per_root_product(_todd_factor(g.m), g.tangent_roots, g.m)
        for k in range(-2, g.m):
            direct = integrate(g, exp_series(g.m, g.c1K + k * g.c1L) * td)
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


_ODD_ROOTS = [
    Geometry(3, Fraction(2), Fraction(3, 2), Fraction(-1),
             (Fraction(1), Fraction(2, 3), Fraction(1, 3))),
    Geometry(3, Fraction(1), Fraction(-2), Fraction(1, 2),
             (Fraction(-1), Fraction(1, 2), Fraction(-1, 2))),
    Geometry(4, Fraction(3), Fraction(2), Fraction(-1, 3),
             (Fraction(1), Fraction(-1, 3), Fraction(0), Fraction(0))),
    Geometry(2, Fraction(1), Fraction(1), Fraction(0), (Fraction(0), Fraction(0))),
]


@pytest.mark.parametrize(
    "g",
    [projective_like_geometry(m, d) for m in range(1, 9) for d in (1, 2)]
    + [surface_geometry(genus, 1) for genus in range(4)]
    + _ODD_ROOTS,
    ids=lambda g: g.label or f"m{g.m}{g.tangent_roots}",
)
def test_power_sum_classes_match_the_per_root_product(g):
    """Â from the power sums of the roots against Πᵢ Q(xᵢu), each factor
    composed by repeated multiplication: at order m for the class, at m + 1
    for the series the transgression reads.  And td = exp(Σᵢ xᵢu/2)·Â, which
    hrr_chi relies on."""
    m = g.m
    assert ahat_class(g) == _per_root_product(_ahat_factor(m), g.tangent_roots, m)
    td = _per_root_product(_todd_factor(m), g.tangent_roots, m)
    assert td == exp_series(m, sum(g.tangent_roots) / 2) * ahat_class(g)
    assert ahat_series(g.tangent_roots, m + 1) == _per_root_product(
        _ahat_factor(m + 1), g.tangent_roots, m + 1
    )
    shifted = [x + Fraction(1, 7) for x in g.tangent_roots] + [Fraction(-3, 2)]
    assert ahat_series(shifted, m + 1) == _per_root_product(_ahat_factor(m + 1), shifted, m + 1)
