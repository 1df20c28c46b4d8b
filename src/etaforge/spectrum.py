"""Exact Dirac spectrum enumeration on the circle bundle.

Type-1 eigenvalues are rational linear forms in (k, ε, r) weighted by Hodge
numbers.  Type-2 eigenvalues come in pairs from a 2x2 block driven by a
positive Dolbeault eigenvalue and are quadratic surds a + b·sqrt(d); their
sign is exact.

The enumerators build already-normalised QuadSurds directly, without
`QuadSurd.make`: a rational value always has b = d = 0, and a type-2 pair
tests its discriminant for an exact square root once.

Convention trap spelled out once: providers store μ², which is twice the
Dolbeault Laplacian eigenvalue (the Laplacian eigenvalue is μ²/2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .cohomology import Geometry
from .errors import InvalidDolbeaultData, UsageError
from .hodge import HodgeProvider, check_k_range

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def _sqrt_exact(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    n = math.isqrt(x.numerator)
    d = math.isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return Fraction(n, d)
    return None


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _surd_sign(a: Fraction, b: Fraction, d: Fraction) -> int:
    """Exact sign of a + b·sqrt(d), d >= 0."""
    if d == 0 or b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    sa, sb = _sign(a), _sign(b)
    if sa == sb:
        return sa
    # opposite signs: compare a^2 with b^2 d
    cmp = _sign(a * a - b * b * d)
    if cmp == 0:
        return 0
    return sa if cmp > 0 else sb


class QuadSurd(NamedTuple):
    """Exact value a + b·sqrt(d) with rational a, b and d >= 0.

    Perfect-square radicands are normalized away so rational values always
    have b = 0, d = 0.
    """

    a: Fraction
    b: Fraction
    d: Fraction

    @staticmethod
    def make(a: Fraction | int, b: Fraction | int = 0, d: Fraction | int = 0) -> "QuadSurd":
        a, b, d = Fraction(a), Fraction(b), Fraction(d)
        if d < 0:
            raise UsageError("negative radicand")
        if b == 0 or d == 0:
            return QuadSurd(a, Fraction(0), Fraction(0))
        root = _sqrt_exact(d)
        if root is not None:
            return QuadSurd(a + b * root, Fraction(0), Fraction(0))
        return QuadSurd(a, b, d)

    def sign(self) -> int:
        return _surd_sign(self.a, self.b, self.d)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(float(self.d))


class EigRecord(NamedTuple):
    """One eigenvalue with its multiplicity (at least 1: the enumerators skip
    a zero Hodge number and keep only a positive d^p)."""

    value: QuadSurd
    multiplicity: int
    tag: str  # "type1" | "type2plus" | "type2minus"
    k: int
    p: int
    mu_sq: Fraction | None = None


class DolbeaultProvider:
    """Declared Dolbeault data on an m-dimensional base: entries
    (k, p, μ², e_μ^{p,k}) with 0 <= p <= m, and a positive lower bound M on
    the stored μ² values.

    Lookups go through an index of the entries keyed by (k, p) and μ² as
    numerator and denominator (which skips hashing a Fraction), built once;
    when a key repeats, its first entry is the one the index keeps.  The
    complex is exact on a positive eigenvalue: with e^p = 0 where no entry is
    given, each d^p = e^p - d^{p-1} >= 0 and d^m = 0, or the provider refuses
    the data.  The keys with d^p > 0 are kept, in first-entry order.
    """

    def __init__(
        self, entries: tuple[tuple[int, int, Fraction, int], ...], lower_bound: Fraction, m: int
    ) -> None:
        if lower_bound <= 0:
            raise UsageError("lower bound M must be positive")
        self.entries, self.lower_bound, self.m = entries, lower_bound, m
        m_num, m_den = lower_bound.numerator, lower_bound.denominator
        index: dict[tuple[int, int, int, int], tuple[int, int, Fraction, int]] = {}
        for entry in entries:
            k, p, mu_sq, e = entry
            s, t = mu_sq.numerator, mu_sq.denominator
            # μ² < M compared in integers; M > 0, so this catches μ² <= 0 too
            if s * m_den < m_num * t:
                if s <= 0:
                    raise UsageError("Dolbeault eigenvalue data must be positive")
                raise UsageError("declared lower bound exceeds a stored eigenvalue")
            if e < 0:
                raise UsageError("multiplicities must be nonnegative")
            if not 0 <= p <= m:
                raise UsageError(f"Dolbeault entry at p={p} outside 0..{m}")
            index.setdefault((k, p, s, t), entry)
        # d^0..d^m of each (k, μ²), walked from the index when its first key is met
        d_at: dict[tuple[int, int, int, int], int] = {}
        positive = []
        for key, (k, p, mu_sq, _) in index.items():
            d = d_at.get(key)
            if d is None:
                s, t, d = key[2], key[3], 0
                for q in range(m + 1):
                    key_q = (k, q, s, t)
                    entry = index.get(key_q)
                    d = (0 if entry is None else entry[3]) - d
                    if d < 0:
                        break
                    d_at[key_q] = d
                if d:  # a negative d^q, or d^m != 0
                    raise InvalidDolbeaultData(
                        f"alternating multiplicity d^{q} = {d} at (k={k}, mu_sq={mu_sq}): "
                        f"an exact complex has every d^p >= 0 and d^{m} = 0"
                    )
                d = d_at[key]
            if d:
                positive.append((k, p, mu_sq, d))
        self._index, self._type2_keys = index, positive

    def e(self, k: int, p: int, mu_sq: Fraction) -> int:
        entry = self._index.get((k, p, mu_sq.numerator, mu_sq.denominator))
        return 0 if entry is None else entry[3]


def type1_eigenvalues(
    g: Geometry,
    hp: HodgeProvider,
    r: Fraction,
    eps: Fraction,
    k_range: tuple[int, int],
) -> list[EigRecord]:
    """λ = (-1)^p (k + ε(p - m/2) - r) with multiplicity h^{p,k}."""
    if eps <= 0:
        raise UsageError("eps must be positive")
    check_k_range(*k_range)
    # per family p: λ = offset_p + sign_p·k with offset_p = (-1)^p (ε(p - m/2) - r)
    # = num_p/den_p in lowest terms; then λ = (num_p + sign_p·den_p·k)/den_p is
    # in lowest terms too, since adding a multiple of den_p keeps the gcd 1
    half_m = Fraction(g.m, 2)
    families = []
    for p in range(g.m + 1):
        sign = (-1) ** p
        offset = sign * (eps * (p - half_m) - r)
        families.append((p, offset.numerator, sign * offset.denominator, offset.denominator))
    records = []
    for k in range(k_range[0], k_range[1] + 1):
        for p, num, signed_den, den in families:
            mult = hp.h(p, k)
            if mult == 0:
                continue
            value = QuadSurd(Fraction(num + signed_den * k, den), _ZERO, _ZERO)
            records.append(EigRecord(value, mult, "type1", k, p))
    return records


def _type2_pairs(
    r: Fraction, eps: Fraction, m: int
) -> Callable[[int, int, Fraction], tuple[QuadSurd, QuadSurd]]:
    """The type-2 pair at (k, p, μ²) as a function, for fixed r, ε and m.

    The pair is t_p ± sqrt(δ)/2 with δ = (2k + c_p)² + 4εμ², where the trace
    half t_p = (-1)^{p+1}ε/2 and c_p = ε(2p - m + 1) - 2r are computed once
    per p.  With c_p = u/v, ε = e/f and μ² = s/t, δ is built in integers over
    the one denominator v²·f·t and normalised once, then tested for an exact
    square root once per pair.
    """
    if eps <= 0:
        raise UsageError("mu_sq and eps must be positive")
    four_e, f = 4 * eps.numerator, eps.denominator
    families: dict[int, tuple[Fraction, int, int, int]] = {}

    def pair(k: int, p: int, mu_sq: Fraction) -> tuple[QuadSurd, QuadSurd]:
        if p not in families:
            shift = eps * (2 * p - m + 1) - 2 * r
            v = shift.denominator
            families[p] = ((eps if p % 2 else -eps) * _HALF, shift.numerator, 2 * v, v * v)
        trace_half, u, two_v, v_sq = families[p]
        s, t = mu_sq.numerator, mu_sq.denominator
        x = two_v * k + u
        delta = Fraction(x * x * f * t + four_e * s * v_sq, v_sq * f * t)
        root = _sqrt_exact(delta)
        if root is None:
            return QuadSurd(trace_half, _HALF, delta), QuadSurd(trace_half, -_HALF, delta)
        half_root = root * _HALF
        return (
            QuadSurd(trace_half + half_root, _ZERO, _ZERO),
            QuadSurd(trace_half - half_root, _ZERO, _ZERO),
        )

    return pair


def type2_eigenvalues(
    k: int, p: int, mu_sq: Fraction, r: Fraction, eps: Fraction, m: int
) -> tuple[QuadSurd, QuadSurd]:
    """Eigenvalue pair of the 2x2 block [[λ_{k,p}, μ√ε], [μ√ε, λ_{k,p+1}]].

    The discriminant is (2k + ε(2p - m + 1) - 2r)² + 4μ²ε, which is what the
    block's trace/determinant force (the "+1" multiplies ε).
    """
    if mu_sq <= 0:
        raise UsageError("mu_sq and eps must be positive")
    return _type2_pairs(r, eps, m)(k, p, mu_sq)


def type2_records(
    provider: DolbeaultProvider,
    r: Fraction,
    eps: Fraction,
    k_range: tuple[int, int],
) -> list[EigRecord]:
    """The type-2 pairs of the keys (k, p, μ²) with k in k_range and a
    positive alternating multiplicity, one pair per key, in the order of
    their first entries (a repeated key is paired once, with the multiplicity
    its first entry gives), for the provider's base dimension m.  The provider
    checked every key when it was built; only the keys inside the range reach
    the pair function."""
    pair = _type2_pairs(r, eps, provider.m)
    k_min, k_max = k_range
    records = []
    for k, p, mu_sq, mult in provider._type2_keys:
        if not k_min <= k <= k_max:
            continue
        plus, minus = pair(k, p, mu_sq)
        records.append(EigRecord(plus, mult, "type2plus", k, p, mu_sq))
        records.append(EigRecord(minus, mult, "type2minus", k, p, mu_sq))
    return records


def type1_zeros(g: Geometry, r: Fraction, eps: Fraction) -> list[tuple[int, int]]:
    """The (p, k) whose type-1 family is zero at r: for each p, the one
    k = r − ε(p − m/2), when that k is an integer."""
    half_m = Fraction(g.m, 2)
    zeros = []
    for p in range(g.m + 1):
        k = r - eps * (p - half_m)
        if k.denominator == 1:
            zeros.append((p, k.numerator))
    return zeros


def kernel_dimension(
    g: Geometry, hp: HodgeProvider, r: Fraction, eps: Fraction
) -> int:
    """Total multiplicity of zero type-1 eigenvalues (type-2 values cannot
    vanish in the ε/8 < M validity regime)."""
    if eps <= 0:
        raise UsageError("eps must be positive")
    return sum(hp.h(p, k) for p, k in type1_zeros(g, r, eps))


def validate_epsilon(eps: Fraction, provider: DolbeaultProvider) -> bool:
    """Type-2 families keep their sign (and so never cross zero) when
    ε/8 < M."""
    return eps / 8 < provider.lower_bound


def finite_eta_partial(records: Sequence[EigRecord], s: float, cutoff: int) -> float:
    """Diagnostic partial sum Σ sign(λ)|λ|^{-s} over the cutoff records of
    largest |λ|; zero eigenvalues are skipped.  No convergence claim."""
    if s <= 0:
        raise UsageError("s must be positive")
    nonzero = [rec for rec in records if rec.value.sign() != 0]
    nonzero.sort(key=lambda rec: abs(float(rec.value)), reverse=True)
    total = 0.0
    for rec in nonzero[:cutoff]:
        total += rec.value.sign() * abs(float(rec.value)) ** (-s) * rec.multiplicity
    return total
