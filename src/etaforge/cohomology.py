"""Single-generator cohomology model of the base manifold.

A geometry is described by one degree-2 generator u with ∫ u^m given, plus
Chern data: c₁(L), c₁(K) (the spin square root of the canonical bundle) and
the Chern roots of the holomorphic tangent bundle.  A cohomology class is a
TruncSeries of order m, a polynomial in u with u^{m+1} = 0 and Fraction
coefficients, so integration is a coefficient read-off.  Every Chern root
is a rational multiple x·u of u, so a multiplicative class Πᵢ Q(xᵢu) is
exp(Σₙ [log Q]ₙ·pₙ·uⁿ) with pₙ = Σᵢ xᵢⁿ the power sums of the roots: Â is
built so, once per geometry.  The Euler characteristic χ(k), a polynomial
in the twist k, is kept as its coefficient tuple, read off Â alone: with K
the spin square root, ch(K)·td = Â (see hrr_chi), so no td class is built.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import UsageError
from .scalars import TruncSeries, universal_series

# largest base dimension m, an input bound: classes are series of order m or
# m + 1 and Hodge data are read for p = 0..m; a larger m is refused before any
# series is built
_MAX_BASE_DIMENSION = 32


def _check_base_dimension(m: int) -> None:
    if m < 1:
        raise UsageError("base dimension m must be at least 1")
    if m > _MAX_BASE_DIMENSION:
        raise UsageError(f"base dimension m={m} is above the limit {_MAX_BASE_DIMENSION}")


class _GeometryFields(NamedTuple):
    m: int
    top_integral: Fraction
    c1L: Fraction                      # coefficient of u in c₁(L)
    c1K: Fraction                      # coefficient of u in c₁(K)
    tangent_roots: tuple[Fraction, ...]  # coefficients of u, length m
    label: str = ""


class Geometry(_GeometryFields):
    """Chern data of the base: dimension, normalization, L, K and tangent roots."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Geometry:
        self = super().__new__(cls, *args, **kwargs)
        _check_base_dimension(self.m)
        if len(self.tangent_roots) != self.m:
            raise UsageError("need exactly m tangent Chern roots")
        if 2 * self.c1K != -sum(self.tangent_roots):
            raise UsageError(
                "spin condition violated: 2·c1K must equal -(sum of tangent roots)"
            )
        return self


def surface_geometry(genus: int, degree: int) -> Geometry:
    """Genus-g Riemann surface with a degree-l line bundle."""
    if degree < 1:
        raise UsageError("surface preset requires degree >= 1")
    return Geometry(
        m=1,
        top_integral=Fraction(1),
        c1L=Fraction(degree),
        c1K=Fraction(genus - 1),
        tangent_roots=(Fraction(2 - 2 * genus),),
        label=f"surface(genus={genus}, degree={degree})",
    )


def projective_like_geometry(m: int, degree: int = 1) -> Geometry:
    """Projective-space-like base: all tangent roots equal to u.

    The spin square root then has c₁(K) = -(m/2)·u, which is an allowed
    rational class in this model.
    """
    _check_base_dimension(m)  # before m roots are built
    return Geometry(
        m=m,
        top_integral=Fraction(1),
        c1L=Fraction(degree),
        c1K=Fraction(-m, 2),
        tangent_roots=tuple(Fraction(1) for _ in range(m)),
        label=f"projective_like(m={m}, degree={degree})",
    )


def integrate(g: Geometry, cls: TruncSeries) -> Fraction:
    if cls.order != g.m:
        raise UsageError("class dimension does not match geometry")
    return cls.coeffs[g.m] * g.top_integral


def ahat_series(roots: Sequence[Fraction], order: int) -> TruncSeries:
    """Â of line bundles with Chern roots roots·u, truncated at u^{order}:
    Πᵢ (xᵢu/2)/sinh(xᵢu/2) = exp(Σₙ 2·p_ahatₙ·pₙ·uⁿ) with pₙ = Σᵢ xᵢⁿ, as
    p_ahat is (1/2)log of the single-root factor."""
    p = universal_series("p_ahat", order)
    return TruncSeries(
        order, [0] + [2 * p.coeffs[n] * sum(x**n for x in roots) for n in range(1, order + 1)]
    ).exp()


@functools.lru_cache(maxsize=256)
def ahat_class(g: Geometry) -> TruncSeries:
    """Â(X) of the tangent roots, built once per geometry."""
    return ahat_series(g.tangent_roots, g.m)


@functools.lru_cache(maxsize=256)
def hrr_chi(g: Geometry) -> tuple[Fraction, ...]:
    """Ascending coefficients χ_a of the Euler characteristic
    χ(k) = ∫ ch(K⊗L^k)·td(X) = Σ_a χ_a k^a, built once per geometry.

    Per root, x/(1 - e^{-x}) = e^{x/2}·(x/2)/sinh(x/2), so
    td = exp(Σᵢ xᵢu/2)·Â; Geometry enforces 2c₁(K) = -Σᵢ xᵢ, so
    ch(K) = exp(-Σᵢ xᵢu/2) and ch(K)·td = Â.  With ch(L^k) = exp(k·c₁(L)·u),
    χ_a = c₁(L)^a · [u^{m-a}]Â · ∫u^m / a!.
    """
    ahat = ahat_class(g)
    return tuple(
        g.c1L**a * ahat.coeffs[g.m - a] * g.top_integral / math.factorial(a)
        for a in range(g.m + 1)
    )


def index_integral(g: Geometry, r: Fraction) -> Fraction:
    """∫₀^r χ(s) ds with χ the HRR polynomial in a continuous parameter
    (a signed integral, so r may be negative)."""
    total = Fraction(0)
    for a, coeff in enumerate(hrr_chi(g)):
        total += coeff * r ** (a + 1) / (a + 1)
    return total
