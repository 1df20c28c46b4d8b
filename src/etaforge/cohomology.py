"""Single-generator cohomology model of the base manifold.

A geometry is described by one degree-2 generator u with ∫ u^m given, plus
Chern data: c₁(L), c₁(K) (the spin square root of the canonical bundle) and
the Chern roots of the holomorphic tangent bundle.  A cohomology class is a
truncated polynomial in u with ParamScalar coefficients, so integration is a
coefficient read-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import UsageError
from .scalars import ParamScalar, ScalarLike, TruncSeries, universal_series


class CohClass:
    """Polynomial in the generator u, truncated at degree m (u^{m+1} = 0)."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Sequence[ScalarLike]):
        coeffs = [ParamScalar.coerce(c) for c in coeffs[: m + 1]]
        coeffs += [ParamScalar.const(0)] * (m + 1 - len(coeffs))
        self.m = m
        self.coeffs: tuple[ParamScalar, ...] = tuple(coeffs)

    @staticmethod
    def constant(m: int, value: ScalarLike) -> "CohClass":
        return CohClass(m, [value])

    @staticmethod
    def generator(m: int, coefficient: ScalarLike = 1) -> "CohClass":
        return CohClass(m, [0, coefficient])

    def _check(self, other: "CohClass") -> None:
        if self.m != other.m:
            raise UsageError("cohomology classes live on bases of different dimension")

    def __add__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        return CohClass(self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CohClass":
        return CohClass(self.m, [-a for a in self.coeffs])

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-other)

    def __mul__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        out = [ParamScalar.const(0) for _ in range(self.m + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.m + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return CohClass(self.m, out)

    def scale(self, s: ScalarLike) -> "CohClass":
        s = ParamScalar.coerce(s)
        return CohClass(self.m, [c * s for c in self.coeffs])

    def degree_part(self, d: int) -> ParamScalar:
        return self.coeffs[d]

    def __pow__(self, n: int) -> "CohClass":
        result = CohClass.constant(self.m, 1)
        for _ in range(n):
            result = result * self
        return result

    def apply_series(self, series: TruncSeries) -> "CohClass":
        """Evaluate a power series on this class.

        The degree-0 coefficient of the class must vanish so that powers
        terminate; the series constant term is allowed to be anything.
        """
        if not self.coeffs[0].is_zero():
            raise UsageError("series argument must have zero constant term")
        if series.order < self.m:
            raise UsageError("series truncated below the top cohomological degree")
        result = CohClass.constant(self.m, series.coeffs[0])
        power = CohClass.constant(self.m, 1)
        for i in range(1, self.m + 1):
            power = power * self
            result = result + power.scale(series.coeffs[i])
        return result

    def exp(self) -> "CohClass":
        if not self.coeffs[0].is_zero():
            raise UsageError("class exponential requires zero constant term")
        fact = Fraction(1)
        result = CohClass.constant(self.m, 1)
        power = CohClass.constant(self.m, 1)
        for i in range(1, self.m + 1):
            power = power * self
            fact = fact / i
            result = result + power.scale(fact)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohClass):
            return NotImplemented
        return self.m == other.m and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"CohClass(m={self.m}, coeffs={list(self.coeffs)})"


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
        if len(self.tangent_roots) != self.m:
            raise UsageError("need exactly m tangent Chern roots")
        if 2 * self.c1K != -sum(self.tangent_roots):
            raise UsageError(
                "spin condition violated: 2·c1K must equal -(sum of tangent roots)"
            )

    @property
    def series_order(self) -> int:
        return 2 * self.m + 4

    def c_class(self) -> CohClass:
        return CohClass.generator(self.m, self.c1L)

    def k_class(self) -> CohClass:
        return CohClass.generator(self.m, self.c1K)


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


def integrate(g: Geometry, cls: CohClass) -> ParamScalar:
    if cls.m != g.m:
        raise UsageError("class dimension does not match geometry")
    return cls.coeffs[g.m] * g.top_integral


def char_class(g: Geometry, name: str, arg: CohClass | None = None) -> CohClass:
    """todd, ahat, or ch_line(arg) of the geometry."""
    if name == "todd":
        td = universal_series("todd", g.series_order)
        result = CohClass.constant(g.m, 1)
        for root in g.tangent_roots:
            result = result * CohClass.generator(g.m, root).apply_series(td)
        return result
    if name == "ahat":
        # p_ahat is (1/2)log of the single-root factor, so each root
        # contributes 2·p_ahat to log(ahat) (same factor 2 the cylinder
        # transgression forms carry explicitly)
        p = universal_series("p_ahat", g.series_order)
        total = CohClass.constant(g.m, 0)
        for root in g.tangent_roots:
            total = total + CohClass.generator(g.m, root).apply_series(p).scale(2)
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


def index_integral(g: Geometry, r: Fraction) -> Fraction:
    """∫₀^r χ(s) ds with χ the HRR polynomial in a continuous parameter
    (a signed integral, so r may be negative)."""
    chi = hrr_chi(g, "s").univariate("s")
    total = Fraction(0)
    for a, coeff in enumerate(chi):
        total += coeff * r ** (a + 1) / (a + 1)
    return total
