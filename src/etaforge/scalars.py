"""Exact scalar algebra: truncated univariate power series over the rationals.

Everything downstream (cohomology classes, eta values, flow counts) is built
over these series, so all arithmetic here is exact.  Every coefficient is a
Fraction.  No series is composed with another: the classes downstream take
power sums of Chern roots, and a series at a multiple of the generator is a
dilation of its coefficients.  No series carries a formal parameter: each
quantity that depends on one (the coupling δ of the transgression, the twist
k of the Euler characteristic, the fractional-part variable a of the eta-form
bracket) is evaluated at rationals or read off in closed form by its caller.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import SeriesDomainError, UsageError

RationalLike = Union[int, Fraction]


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise UsageError(f"expected an exact rational, got {type(x).__name__}")


class TruncSeries:
    """Univariate power series truncated at a fixed order D, with Fraction
    coefficients.

    A cohomology class of an m-dimensional base is one of order m: a
    polynomial in the generator u with u^{m+1} = 0.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[RationalLike]):
        coeffs = [_as_fraction(c) for c in coeffs]
        if len(coeffs) > order + 1:
            raise UsageError("more coefficients than the truncation order allows")
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs: tuple[Fraction, ...] = tuple(coeffs)

    @staticmethod
    def constant(value: RationalLike, order: int) -> "TruncSeries":
        return TruncSeries(order, [value])

    @staticmethod
    def x(order: int) -> "TruncSeries":
        return TruncSeries(order, [0, 1])

    def _check(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise UsageError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.order, [-a for a in self.coeffs])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncSeries(self.order, out)

    def scale(self, s: RationalLike) -> "TruncSeries":
        s = _as_fraction(s)
        return TruncSeries(self.order, [c * s for c in self.coeffs])

    def exp(self) -> "TruncSeries":
        if self.coeffs[0]:
            raise SeriesDomainError("exp requires zero constant term")
        # e' = s'·e gives n·e_n = sum_{k=1..n} k·s_k·e_{n-k}
        e = [Fraction(1)]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += self.coeffs[k] * e[n - k] * k
            e.append(acc / n)
        return TruncSeries(self.order, e)

    def log(self) -> "TruncSeries":
        if self.coeffs[0] != 1:
            raise SeriesDomainError("log requires constant term exactly 1")
        # l_n = s_n - (1/n) sum_{k=1..n-1} k·l_k·s_{n-k}
        l = [Fraction(0)]
        for n in range(1, self.order + 1):
            acc = self.coeffs[n] * n
            for k in range(1, n):
                acc -= l[k] * self.coeffs[n - k] * k
            l.append(acc / n)
        return TruncSeries(self.order, l)

    def divide(self, den: "TruncSeries", shared_factor: int = 0) -> "TruncSeries":
        """Exact truncated quotient.

        When numerator and denominator share a common monomial factor
        x^shared_factor, the caller declares it and both are shifted down
        before ordinary division; the result has order D - shared_factor.
        """
        self._check(den)
        j = shared_factor
        if j:
            if any(self.coeffs[:j]) or any(den.coeffs[:j]):
                raise SeriesDomainError(
                    f"declared shared factor x^{j} does not divide both operands"
                )
            num = TruncSeries(self.order - j, self.coeffs[j:])
            den = TruncSeries(self.order - j, den.coeffs[j:])
            return num.divide(den)
        if not den.coeffs[0]:
            raise SeriesDomainError(
                "denominator has zero constant term and no shared factor was declared"
            )
        inv = 1 / den.coeffs[0]
        q: list[Fraction] = []
        for n in range(self.order + 1):
            acc = self.coeffs[n]
            for i in range(n):
                acc -= q[i] * den.coeffs[n - i]
            q.append(acc * inv)
        return TruncSeries(self.order, q)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TruncSeries(order={self.order}, coeffs={[str(c) for c in self.coeffs]})"


def exp_series(order: int, scale: Fraction = Fraction(1)) -> TruncSeries:
    """exp(scale·x), truncated at order."""
    return TruncSeries(
        order, [Fraction(scale**n, math.factorial(n)) for n in range(order + 1)]
    )


def _sinh_series(order: int) -> TruncSeries:
    return TruncSeries(
        order,
        [Fraction(1, math.factorial(n)) if n % 2 else 0 for n in range(order + 1)],
    )


def _check_order(D: int) -> None:
    if D < 1:
        raise UsageError("truncation order must be at least 1")


def universal_series(name: str, D: int) -> TruncSeries:
    """Named universal series, regular at 0, truncated at order D.

    todd       x / (1 - e^{-x})
    p_ahat     (1/2) log((z/2)/sinh(z/2))
    f_integer  (1/2) (coth z - 1/z), the mean of fractional_bracket at a = ±1

    Each (name, D) is built once per process; repeat calls return the same
    series object, which callers must not mutate.
    """
    # a plain function in front of the cache, so that tools wrapping this
    # module's public functions still see (and count) every call
    return _universal_series(name, D)


@functools.lru_cache(maxsize=None)
def _universal_series(name: str, D: int) -> TruncSeries:
    _check_order(D)
    if name == "todd":
        num = TruncSeries.x(D + 1)
        den = TruncSeries.constant(1, D + 1) - exp_series(D + 1, Fraction(-1))
        return num.divide(den, shared_factor=1)
    if name == "p_ahat":
        # sinh(z/2)/(z/2) = sum z^{2k} / (4^k (2k+1)!)
        body = TruncSeries(
            D,
            [
                Fraction(1, 4 ** (n // 2) * math.factorial(n + 1)) if n % 2 == 0 else 0
                for n in range(D + 1)
            ],
        )
        return body.log().scale(Fraction(-1, 2))
    if name == "f_integer":
        # e^{z}/sinh z + e^{-z}/sinh z = 2 coth z
        return (fractional_bracket(1, D) + fractional_bracket(-1, D)).scale(Fraction(1, 2))
    raise UsageError(f"unknown universal series {name!r}")


def fractional_bracket(a: RationalLike, D: int) -> TruncSeries:
    """(1/2) [exp(a z)/sinh z - 1/z] at a rational a, truncated at order D.

    The eta-form bracket at a non-integer coupling r takes a = 1 - 2{r}.  Its
    z^n coefficient is a polynomial of degree n + 1 in a.
    """
    _check_order(D)
    # z·exp(a z) - sinh z, divisible by z^2
    num = TruncSeries(D + 2, [0, *exp_series(D + 1, _as_fraction(a)).coeffs]) - _sinh_series(D + 2)
    den = TruncSeries.x(D + 2) * _sinh_series(D + 2)
    return num.divide(den, shared_factor=2).scale(Fraction(1, 2))


def fractional_part(r: Fraction) -> Fraction:
    return r - math.floor(r)
