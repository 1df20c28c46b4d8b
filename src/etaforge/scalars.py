"""Exact scalar algebra: rationals, polynomials in named formal parameters,
and truncated univariate power series.

Everything downstream (cohomology classes, eta values, flow counts) is built
over these types, so all arithmetic here is exact.  Parameters such as "eps",
"delta" and "a" are formal polynomial variables; substituting rationals for
them is the only way a numeric value ever appears.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import SeriesDomainError, UsageError

RationalLike = Union[int, Fraction]

# A monomial is a sorted tuple of (parameter name, positive exponent) pairs;
# the empty tuple is the constant monomial.
Monomial = tuple[tuple[str, int], ...]

_ONE: Monomial = ()


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise UsageError(f"expected an exact rational, got {type(x).__name__}")


def _mono_mul(u: Monomial, v: Monomial) -> Monomial:
    if not u:
        return v
    if not v:
        return u
    merged: dict[str, int] = dict(u)
    for name, exp in v:
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted(merged.items()))


class ParamScalar:
    """Polynomial in named formal parameters with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Monomial, Fraction]):
        self.coeffs: dict[Monomial, Fraction] = {
            m: c for m, c in coeffs.items() if c != 0
        }

    @staticmethod
    def const(x: RationalLike) -> "ParamScalar":
        return ParamScalar({_ONE: _as_fraction(x)})

    @staticmethod
    def var(name: str) -> "ParamScalar":
        return ParamScalar({((name, 1),): Fraction(1)})

    @staticmethod
    def coerce(x: "ScalarLike") -> "ParamScalar":
        if isinstance(x, ParamScalar):
            return x
        return ParamScalar.const(_as_fraction(x))

    @property
    def params(self) -> frozenset[str]:
        return frozenset(name for mono in self.coeffs for name, _ in mono)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ScalarLike") -> "ParamScalar":
        other = ParamScalar.coerce(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return ParamScalar(out)

    __radd__ = __add__

    def __neg__(self) -> "ParamScalar":
        return ParamScalar({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "ScalarLike") -> "ParamScalar":
        return self + (-ParamScalar.coerce(other))

    def __rsub__(self, other: "ScalarLike") -> "ParamScalar":
        return ParamScalar.coerce(other) + (-self)

    def __mul__(self, other: "ScalarLike") -> "ParamScalar":
        other = ParamScalar.coerce(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return ParamScalar(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamScalar":
        if n < 0:
            raise UsageError("negative powers of a polynomial are undefined")
        result = ParamScalar.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def substitute(self, values: Mapping[str, RationalLike]) -> "ParamScalar":
        """Replace named parameters by rationals; the others stay formal."""
        values = {name: _as_fraction(v) for name, v in values.items()}
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.coeffs.items():
            kept = []
            for name, exp in mono:
                if name in values:
                    c *= values[name] ** exp
                else:
                    kept.append((name, exp))
            key = tuple(kept)
            out[key] = out.get(key, Fraction(0)) + c
        return ParamScalar(out)

    def as_fraction(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        if set(self.coeffs) != {_ONE}:
            raise UsageError(f"parameters {sorted(self.params)} remain unsubstituted")
        return self.coeffs[_ONE]

    def univariate(self, name: str) -> list[Fraction]:
        """Coefficient list (ascending) of a polynomial in a single parameter."""
        extra = self.params - {name}
        if extra:
            raise UsageError(f"not univariate in {name!r}: also depends on {sorted(extra)}")
        deg = max((mono[0][1] for mono in self.coeffs if mono), default=0)
        out = [Fraction(0)] * (deg + 1)
        for mono, c in self.coeffs.items():
            out[mono[0][1] if mono else 0] = c
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamScalar.const(other)
        if not isinstance(other, ParamScalar):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for mono, c in sorted(self.coeffs.items()):
            names = "*".join(
                f"{n}^{e}" if e > 1 else n for n, e in mono
            )
            parts.append(f"{c}*{names}" if names else f"{c}")
        return " + ".join(parts)


ScalarLike = Union[int, Fraction, ParamScalar]


class TruncSeries:
    """Univariate power series truncated at a fixed order D.

    Coefficients are ParamScalar, so a series may carry formal parameters
    (the fractional-part variable "a" of the eta-form bracket does).  A
    cohomology class of an m-dimensional base is one of order m: a
    polynomial in the generator u with u^{m+1} = 0.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[ScalarLike]):
        coeffs = [ParamScalar.coerce(c) for c in coeffs]
        if len(coeffs) > order + 1:
            raise UsageError("more coefficients than the truncation order allows")
        coeffs += [ParamScalar.const(0)] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs: tuple[ParamScalar, ...] = tuple(coeffs)

    @staticmethod
    def constant(value: ScalarLike, order: int) -> "TruncSeries":
        return TruncSeries(order, [ParamScalar.coerce(value)])

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
        out = [ParamScalar.const(0) for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(self.order, out)

    def scale(self, s: ScalarLike) -> "TruncSeries":
        s = ParamScalar.coerce(s)
        return TruncSeries(self.order, [c * s for c in self.coeffs])

    def apply_series(self, series: "TruncSeries") -> "TruncSeries":
        """series(self), truncated at this order.

        The constant term of self must vanish so that powers terminate; the
        constant term of series may be anything.
        """
        if not self.coeffs[0].is_zero():
            raise UsageError("series argument must have zero constant term")
        if series.order < self.order:
            raise UsageError("series truncated below the order of its argument")
        result = TruncSeries.constant(series.coeffs[0], self.order)
        power = TruncSeries.constant(1, self.order)
        for i in range(1, self.order + 1):
            power = power * self
            result = result + power.scale(series.coeffs[i])
        return result

    def exp(self) -> "TruncSeries":
        if not self.coeffs[0].is_zero():
            raise SeriesDomainError("exp requires zero constant term")
        # e' = s'·e gives n·e_n = sum_{k=1..n} k·s_k·e_{n-k}
        e = [ParamScalar.const(1)]
        for n in range(1, self.order + 1):
            acc = ParamScalar.const(0)
            for k in range(1, n + 1):
                acc = acc + self.coeffs[k] * e[n - k] * k
            e.append(acc * Fraction(1, n))
        return TruncSeries(self.order, e)

    def log(self) -> "TruncSeries":
        if self.coeffs[0] != ParamScalar.const(1):
            raise SeriesDomainError("log requires constant term exactly 1")
        # l_n = s_n - (1/n) sum_{k=1..n-1} k·l_k·s_{n-k}
        l = [ParamScalar.const(0)]
        for n in range(1, self.order + 1):
            acc = self.coeffs[n] * n
            for k in range(1, n):
                acc = acc - l[k] * self.coeffs[n - k] * k
            l.append(acc * Fraction(1, n))
        return TruncSeries(self.order, l)

    def derivative(self) -> "TruncSeries":
        return TruncSeries(
            self.order - 1,
            [self.coeffs[n] * n for n in range(1, self.order + 1)],
        )

    def divide(self, den: "TruncSeries", shared_factor: int = 0) -> "TruncSeries":
        """Exact truncated quotient.

        When numerator and denominator share a common monomial factor
        x^shared_factor, the caller declares it and both are shifted down
        before ordinary division; the result has order D - shared_factor.
        """
        self._check(den)
        j = shared_factor
        if j:
            for i in range(j):
                if not self.coeffs[i].is_zero() or not den.coeffs[i].is_zero():
                    raise SeriesDomainError(
                        f"declared shared factor x^{j} does not divide both operands"
                    )
            num = TruncSeries(self.order - j, self.coeffs[j:])
            den = TruncSeries(self.order - j, den.coeffs[j:])
            return num.divide(den)
        c0 = den.coeffs[0]
        if c0.params:
            raise SeriesDomainError("denominator constant term carries parameters")
        c0f = c0.as_fraction()
        if c0f == 0:
            raise SeriesDomainError(
                "denominator has zero constant term and no shared factor was declared"
            )
        inv = Fraction(1) / c0f
        q: list[ParamScalar] = []
        for n in range(self.order + 1):
            acc = self.coeffs[n]
            for i in range(n):
                acc = acc - q[i] * den.coeffs[n - i]
            q.append(acc * inv)
        return TruncSeries(self.order, q)

    def substitute(self, values: Mapping[str, RationalLike]) -> "TruncSeries":
        return TruncSeries(self.order, [c.substitute(values) for c in self.coeffs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TruncSeries(order={self.order}, coeffs={list(self.coeffs)})"


def _exp_series(order: int, scale: Fraction = Fraction(1)) -> TruncSeries:
    return TruncSeries(
        order, [Fraction(scale**n, math.factorial(n)) for n in range(order + 1)]
    )


def _sinh_series(order: int, scale: Fraction = Fraction(1)) -> TruncSeries:
    return TruncSeries(
        order,
        [
            Fraction(scale**n, math.factorial(n)) if n % 2 == 1 else Fraction(0)
            for n in range(order + 1)
        ],
    )


def _cosh_series(order: int) -> TruncSeries:
    return TruncSeries(
        order,
        [
            Fraction(1, math.factorial(n)) if n % 2 == 0 else Fraction(0)
            for n in range(order + 1)
        ],
    )


def universal_series(name: str, D: int) -> TruncSeries:
    """Named universal series, regular at 0, truncated at order D.

    todd         x / (1 - e^{-x})
    p_ahat       (1/2) log((z/2)/sinh(z/2))
    p_ahat_deriv formal derivative of p_ahat
    f_integer    (1/2) (z - tanh z)/(z tanh z)
    f_fractional (1/2) [exp(a z)/sinh z - 1/z], "a" a formal parameter

    Each (name, D) is built once per process; repeat calls return the same
    series object, which callers must not mutate.
    """
    # a plain function in front of the cache, so that tools wrapping this
    # module's public functions still see (and count) every call
    return _universal_series(name, D)


@functools.lru_cache(maxsize=None)
def _universal_series(name: str, D: int) -> TruncSeries:
    if D < 1:
        raise UsageError("truncation order must be at least 1")
    if name == "todd":
        num = TruncSeries.x(D + 1)
        den = TruncSeries.constant(1, D + 1) - _exp_series(D + 1, Fraction(-1))
        return num.divide(den, shared_factor=1)
    if name == "p_ahat":
        # sinh(z/2)/(z/2) = sum z^{2k} / (4^k (2k+1)!)
        body = TruncSeries(
            D,
            [
                Fraction(1, 4 ** (n // 2) * math.factorial(n + 1)) if n % 2 == 0 else Fraction(0)
                for n in range(D + 1)
            ],
        )
        return body.log().scale(Fraction(-1, 2))
    if name == "p_ahat_deriv":
        return universal_series("p_ahat", D + 1).derivative()
    if name == "f_integer":
        sinh = _sinh_series(D + 2)
        cosh = _cosh_series(D + 2)
        tanh = sinh.divide(cosh)
        num = TruncSeries.x(D + 2) - tanh
        den = TruncSeries.x(D + 2) * tanh
        return num.divide(den, shared_factor=2).scale(Fraction(1, 2))
    if name == "f_fractional":
        a = ParamScalar.var("a")
        # z·exp(a z) - sinh z, divisible by z^2
        z_exp_az = TruncSeries(
            D + 2,
            [ParamScalar.const(0)]
            + [a**n * Fraction(1, math.factorial(n)) for n in range(D + 2)],
        )
        num = z_exp_az - _sinh_series(D + 2)
        den = TruncSeries.x(D + 2) * _sinh_series(D + 2)
        return num.divide(den, shared_factor=2).scale(Fraction(1, 2))
    raise UsageError(f"unknown universal series {name!r}")


def fractional_part(r: Fraction) -> Fraction:
    return r - math.floor(r)
