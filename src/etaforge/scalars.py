"""Exact scalar algebra: truncated univariate power series over the rationals.

Everything downstream (cohomology classes, eta values, flow counts) is built
over these series, so all arithmetic here is exact.  Every coefficient is a
Fraction.  No series is composed with another: the classes downstream take
power sums of Chern roots, and a series at a multiple of the generator is a
dilation of its coefficients.  No series carries a formal parameter: each
quantity that depends on one (the coupling δ of the transgression, the twist
k of the Euler characteristic, the fractional-part variable a of the eta-form
bracket) is evaluated at rationals or read off in closed form by its caller.
Every universal series is a Bernoulli generating function, so its
coefficients are written down in closed form from one list of Bernoulli
numbers; no series is divided by another, and none has its logarithm taken.
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


def _check_order(D: int) -> None:
    if D < 1:
        raise UsageError("truncation order must be at least 1")


@functools.lru_cache(maxsize=None)
def bernoulli(n: int) -> tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_n with B_1 = -1/2, the coefficients of
    z/(e^z - 1) = Σ B_j z^j / j!, from Σ_{k≤j} C(j+1, k)·B_k = 0 for j ≥ 1."""
    b = [Fraction(1)]
    for j in range(1, n + 1):
        b.append(-sum(math.comb(j + 1, k) * b[k] for k in range(j) if b[k]) / (j + 1))
    return tuple(b)


def universal_series(name: str, D: int) -> TruncSeries:
    """Named universal series, regular at 0, truncated at order D.

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
    if name == "p_ahat":
        # log(sinh(z/2)/(z/2)) = Σ_{n ≥ 2} Bₙzⁿ/(n·n!), and Bₙ = 0 for odd n ≥ 3
        b = bernoulli(D)
        return TruncSeries(D, [0, 0, *(-b[n] / (2 * n * math.factorial(n)) for n in range(2, D + 1))])
    if name == "f_integer":
        # e^{z}/sinh z + e^{-z}/sinh z = 2 coth z
        return (fractional_bracket(1, D) + fractional_bracket(-1, D)).scale(Fraction(1, 2))
    raise UsageError(f"unknown universal series {name!r}")


def fractional_bracket(a: RationalLike, D: int) -> TruncSeries:
    """(1/2) [exp(a z)/sinh z - 1/z] at a rational a, truncated at order D.

    The eta-form bracket at a non-integer coupling r takes a = 1 - 2{r}.
    With x = (a + 1)/2, exp(a z)/sinh z = (1/z)·2z·e^{2xz}/(e^{2z} - 1) =
    Σₙ Bₙ(x)·(2z)ⁿ/(z·n!), for the Bernoulli polynomials
    Bₙ(x) = Σ_k C(n, k)·B_k·x^{n-k}.  So the z^j coefficient is
    2^j·B_{j+1}(x)/(j+1)!, a polynomial of degree j + 1 in a.
    """
    _check_order(D)
    x = (_as_fraction(a) + 1) / 2
    b = bernoulli(D + 1)
    powers = [x**i for i in range(D + 2)]
    return TruncSeries(D, [
        2**j * sum(math.comb(j + 1, k) * b[k] * powers[j + 1 - k] for k in range(j + 2) if b[k])
        / math.factorial(j + 1)
        for j in range(D + 1)
    ])


def fractional_part(r: Fraction) -> Fraction:
    return r - math.floor(r)
