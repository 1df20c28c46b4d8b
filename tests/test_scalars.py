"""Series layer: ring axioms, independent coefficient oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etaforge.errors import SeriesDomainError, UsageError
from etaforge.scalars import (
    TruncSeries,
    bernoulli,
    fractional_bracket,
    fractional_part,
    universal_series,
)

ORDER = 8


def _series(order=4):
    """Strategy for small random series with Fraction coefficients."""
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.lists(coeff, max_size=order + 1).map(lambda cs: TruncSeries(order, cs))


@settings(max_examples=60, deadline=None)
@given(_series(), _series(), _series())
def test_series_ring_axioms(a, b, c):
    zero, one = TruncSeries(4, [0]), TruncSeries(4, [1])
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert all(type(x) is Fraction for s in (a * b, a + c, a.scale(3)) for x in s.coeffs)


def test_series_takes_rationals_only():
    s = TruncSeries(2, [0, 1, Fraction(1, 2)])
    assert all(type(c) is Fraction for c in s.coeffs)
    with pytest.raises(UsageError):
        TruncSeries(2, [0, 0.5])
    with pytest.raises(UsageError):
        s.scale(0.5)
    with pytest.raises(UsageError):
        fractional_bracket(0.5, ORDER)


def _convolve(xs, ys, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if i + j <= order:
                out[i + j] += x * y
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
             min_size=1, max_size=7),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
             min_size=1, max_size=7),
)
def test_series_mul_matches_convolution(xs, ys):
    s = TruncSeries(6, xs[:7]) * TruncSeries(6, ys[:7])
    expected = _convolve(xs[:7], ys[:7], 6)
    assert list(s.coeffs) == expected


def test_exp_matches_factorial_series():
    x = TruncSeries(ORDER, [0, 1])
    e = x.exp()
    for n, c in enumerate(e.coeffs):
        assert c == Fraction(1, math.factorial(n))


def test_exp_requires_zero_constant_term():
    with pytest.raises(SeriesDomainError):
        TruncSeries(4, [1, 1]).exp()


def _bernoulli_oracle(order):
    """Long-division oracle for x/(1 - e^{-x}): solve the convolution
    directly from the factorial coefficients of (1 - e^{-x})/x."""
    den = [
        Fraction((-1) ** n, math.factorial(n + 1)) for n in range(order + 1)
    ]
    quo = []
    for n in range(order + 1):
        acc = Fraction(1 if n == 0 else 0)
        for i in range(n):
            acc -= quo[i] * den[n - i]
        quo.append(acc / den[0])
    return quo


def test_bernoulli_numbers_oracle():
    # x/(1 - e^{-x}) = Σ (-1)^n B_n x^n / n!
    oracle = _bernoulli_oracle(33)
    b = bernoulli(33)
    assert [(-1) ** n * c / math.factorial(n) for n, c in enumerate(b)] == oracle
    assert all(type(c) is Fraction for c in b)
    # spot values: 1, 1/2, 1/12, 0, -1/720
    assert oracle[:5] == [
        Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0), Fraction(-1, 720)
    ]
    assert (b[1], b[2], b[4], b[12]) == (
        Fraction(-1, 2), Fraction(1, 6), Fraction(-1, 30), Fraction(-691, 2730)
    )
    assert bernoulli(12) == b[:13]


def _log_oracle(coeffs):
    """Composition oracle: log(1 + u) = u - u^2/2 + ... expanded by direct
    truncated polynomial powers."""
    order = len(coeffs) - 1
    u = [Fraction(0)] + list(coeffs[1:])
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        power = _convolve(power, u, order)
        for i, c in enumerate(power):
            out[i] += Fraction((-1) ** (n + 1), n) * c
    return out


def test_p_ahat_series_oracle():
    p = universal_series("p_ahat", ORDER)
    body = [
        Fraction(1, 4 ** (n // 2) * math.factorial(n + 1)) if n % 2 == 0 else Fraction(0)
        for n in range(ORDER + 1)
    ]
    oracle = [Fraction(-1, 2) * c for c in _log_oracle(body)]
    assert list(p.coeffs) == oracle
    # only even powers, regular at 0, z^2 coefficient -1/48
    assert p.coeffs[0] == 0
    assert all(p.coeffs[n] == 0 for n in range(1, ORDER + 1, 2))
    assert p.coeffs[2] == Fraction(-1, 48)


def test_f_integer_series_oracle():
    f = universal_series("f_integer", ORDER)
    # long-division oracle for (z - tanh z)/(2 z tanh z): build tanh from
    # sinh/cosh factorials, then divide numerator and denominator z^2-shifted
    order = ORDER + 2
    sinh = [Fraction(1, math.factorial(n)) if n % 2 else Fraction(0) for n in range(order + 1)]
    cosh = [Fraction(1, math.factorial(n)) if n % 2 == 0 else Fraction(0) for n in range(order + 1)]
    tanh = []
    for n in range(order + 1):
        acc = sinh[n]
        for i in range(n):
            acc -= tanh[i] * cosh[n - i]
        tanh.append(acc)
    num = [(Fraction(1) if n == 1 else Fraction(0)) - tanh[n] for n in range(order + 1)]
    den = _convolve([Fraction(0), Fraction(1)], tanh, order)
    num, den = num[2:], den[2:]
    quo = []
    for n in range(ORDER + 1):
        acc = num[n]
        for i in range(n):
            acc -= quo[i] * den[n - i]
        quo.append(acc / den[0])
    oracle = [q / 2 for q in quo]
    assert list(f.coeffs) == oracle
    # odd series with leading coefficient 1/6
    assert f.coeffs[0] == 0
    assert f.coeffs[1] == Fraction(1, 6)
    assert all(f.coeffs[n] == 0 for n in range(0, ORDER + 1, 2))


# order + 2 distinct values of a: each coefficient of the bracket is a
# polynomial of degree at most order + 1 in a, so agreement at these values
# pins it as a polynomial
_A_VALUES = [Fraction(j - 4, 3) for j in range(ORDER + 2)]


def test_f_fractional_constant_term_and_a_one_identity():
    for a in _A_VALUES:
        assert fractional_bracket(a, ORDER).coeffs[0] == a / 2
    # at a = 1: e^z/sinh z = coth z + 1, so the bracket - f_integer = 1/2
    bracket = fractional_bracket(1, ORDER).coeffs
    assert list(bracket) == [Fraction(1, 2) + c if n == 0 else c
                             for n, c in enumerate(universal_series("f_integer", ORDER).coeffs)]
    # and f_integer is the mean of the bracket at a = ±1
    for order in range(4, 21):
        mean = (fractional_bracket(1, order) + fractional_bracket(-1, order)).scale(Fraction(1, 2))
        assert mean == universal_series("f_integer", order)


def _fractional_oracle(a, order):
    """Product-expansion oracle: (z e^{az} - sinh z) / (2 z sinh z), by long
    division of the z^2-shifted factorial coefficients."""
    big = order + 2
    num = [Fraction(0)] * (big + 1)
    for n in range(1, big + 1):
        num[n] = a ** (n - 1) / math.factorial(n - 1)
        if n % 2 == 1:
            num[n] -= Fraction(1, math.factorial(n))
    sinh = [Fraction(1, math.factorial(n)) if n % 2 else Fraction(0) for n in range(big + 1)]
    den = _convolve([Fraction(0), Fraction(1)], sinh, big)
    num, den = num[2:], den[2:]
    quo = []
    for n in range(order + 1):
        acc = num[n]
        for i in range(n):
            acc -= quo[i] * den[n - i]
        quo.append(acc / den[0])
    return [q / 2 for q in quo]


def test_f_fractional_composition_oracle():
    for a in _A_VALUES:
        f = fractional_bracket(a, ORDER)
        assert list(f.coeffs) == _fractional_oracle(a, ORDER)
        assert all(type(c) is Fraction for c in f.coeffs)


def test_f_fractional_periodicity_in_r():
    """a = 1 - 2{r} is invariant under r -> r + 1, so the bracket is too."""
    for r in (Fraction(1, 3), Fraction(7, 5), Fraction(-2, 7)):
        a0 = 1 - 2 * fractional_part(r)
        a1 = 1 - 2 * fractional_part(r + 1)
        assert a0 == a1
        assert fractional_bracket(a0, ORDER) == fractional_bracket(a1, ORDER)


def test_universal_series_is_memoised_and_still_validates():
    for name in ("p_ahat", "f_integer"):
        assert universal_series(name, ORDER) is universal_series(name, ORDER)
    assert universal_series("p_ahat", ORDER) is not universal_series("p_ahat", ORDER + 1)
    for _ in range(2):
        with pytest.raises(UsageError):
            universal_series("p_ahat", 0)
        with pytest.raises(UsageError):
            fractional_bracket(Fraction(1, 3), 0)
        # the formal-parameter series and the Todd series are gone
        for name in ("no_such_series", "f_fractional", "p_ahat_deriv", "todd"):
            with pytest.raises(UsageError):
                universal_series(name, ORDER)


def test_fractional_part():
    assert fractional_part(Fraction(7, 5)) == Fraction(2, 5)
    assert fractional_part(Fraction(-1, 3)) == Fraction(2, 3)
    assert fractional_part(Fraction(4)) == 0
