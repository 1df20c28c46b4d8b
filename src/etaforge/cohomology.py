"""Single-generator cohomology model of the base manifold.

A geometry is described by one degree-2 generator u with ∫ u^m given, plus
Chern data: c₁(L), c₁(K) (the spin square root of the canonical bundle) and
the Chern roots of the holomorphic tangent bundle.  A cohomology class is a
TruncSeries of order m, a polynomial in u with u^{m+1} = 0 and ParamScalar
coefficients, so integration is a coefficient read-off.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError
from .scalars import ParamScalar, TruncSeries, universal_series


@dataclass(frozen=True)
class Geometry:
    """Chern data of the base: dimension, normalization, L, K and tangent roots."""

    m: int
    top_integral: Fraction
    c1L: Fraction                      # coefficient of u in c₁(L)
    c1K: Fraction                      # coefficient of u in c₁(K)
    tangent_roots: tuple[Fraction, ...]  # coefficients of u, length m
    label: str = ""

    def __post_init__(self) -> None:
        if self.m < 1:
            raise UsageError("base dimension m must be at least 1")
        if len(self.tangent_roots) != self.m:
            raise UsageError("need exactly m tangent Chern roots")
        if 2 * self.c1K != -sum(self.tangent_roots):
            raise UsageError(
                "spin condition violated: 2·c1K must equal -(sum of tangent roots)"
            )

    @property
    def series_order(self) -> int:
        return 2 * self.m + 4

    def c_class(self) -> TruncSeries:
        return TruncSeries(self.m, [0, self.c1L])

    def k_class(self) -> TruncSeries:
        return TruncSeries(self.m, [0, self.c1K])


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
    return Geometry(
        m=m,
        top_integral=Fraction(1),
        c1L=Fraction(degree),
        c1K=Fraction(-m, 2),
        tangent_roots=tuple(Fraction(1) for _ in range(m)),
        label=f"projective_like(m={m}, degree={degree})",
    )


def integrate(g: Geometry, cls: TruncSeries) -> ParamScalar:
    if cls.order != g.m:
        raise UsageError("class dimension does not match geometry")
    return cls.coeffs[g.m] * g.top_integral


def char_class(g: Geometry, name: str, arg: TruncSeries | None = None) -> TruncSeries:
    """todd, ahat, or ch_line(arg) of the geometry."""
    if name == "todd":
        td = universal_series("todd", g.series_order)
        result = TruncSeries.constant(1, g.m)
        for root in g.tangent_roots:
            result = result * TruncSeries(g.m, [0, root]).apply_series(td)
        return result
    if name == "ahat":
        # p_ahat is (1/2)log of the single-root factor, so each root
        # contributes 2·p_ahat to log(ahat) (same factor 2 the cylinder
        # transgression forms carry explicitly)
        p = universal_series("p_ahat", g.series_order)
        total = TruncSeries.constant(0, g.m)
        for root in g.tangent_roots:
            total = total + TruncSeries(g.m, [0, root]).apply_series(p).scale(2)
        return total.exp()
    if name == "ch_line":
        if arg is None:
            raise UsageError("ch_line requires a class argument")
        return arg.exp()
    raise UsageError(f"unknown characteristic class {name!r}")


def hrr_chi(g: Geometry, param: str = "k") -> ParamScalar:
    """Holomorphic Euler characteristic χ(k) = ∫ ch(K⊗L^k)·td(X), k formal."""
    k = ParamScalar.var(param)
    line = g.k_class() + g.c_class().scale(k)
    cls = char_class(g, "ch_line", line) * char_class(g, "todd")
    return integrate(g, cls)


@functools.lru_cache(maxsize=256)
def _chi_coeffs(g: Geometry) -> tuple[Fraction, ...]:
    """Ascending coefficients of the HRR polynomial χ, built once per geometry."""
    return tuple(hrr_chi(g, "s").univariate("s"))


def index_integral(g: Geometry, r: Fraction) -> Fraction:
    """∫₀^r χ(s) ds with χ the HRR polynomial in a continuous parameter
    (a signed integral, so r may be negative)."""
    total = Fraction(0)
    for a, coeff in enumerate(_chi_coeffs(g)):
        total += coeff * r ** (a + 1) / (a + 1)
    return total
