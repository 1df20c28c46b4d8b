"""Exact Dirac spectrum enumeration on the circle bundle.

Type-1 eigenvalues are rational linear forms in (k, ε, r) weighted by Hodge
numbers.  Type-2 eigenvalues come in pairs from a 2x2 block driven by a
positive Dolbeault eigenvalue and are quadratic surds a + b·sqrt(d); their
sign and comparison queries are exact.

The enumerators build already-normalised QuadSurds directly, without
`QuadSurd.make`: a rational value always has b = d = 0, and a type-2 pair
tests its discriminant for an exact square root once.

Convention trap spelled out once: providers store μ², which is twice the
Dolbeault Laplacian eigenvalue (the Laplacian eigenvalue is μ²/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .cohomology import Geometry
from .errors import InvalidDolbeaultData, UsageError
from .hodge import HodgeProvider

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


@dataclass(frozen=True, slots=True)
class QuadSurd:
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

    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        return _surd_sign(self.a, self.b, self.d)

    def __neg__(self) -> "QuadSurd":
        return QuadSurd(-self.a, -self.b, self.d)

    def __abs__(self) -> "QuadSurd":
        return self if self.sign() >= 0 else -self

    def _cmp(self, other: "QuadSurd") -> int:
        """Exact sign of self - other (radicands may differ)."""
        A = self.a - other.a
        B, p = self.b, self.d
        C, q = other.b, other.d
        if p == q or C == 0:
            return _surd_sign(A, B - C if p == q else B, p)
        if B == 0:
            return _surd_sign(A, -C, q)
        # sign of A + U with U = B·sqrt(p) - C·sqrt(q)
        if _sign(B) == _sign(C):
            su = _sign(B) * _sign(B * B * p - C * C * q)
        else:
            su = _sign(B)
        if A == 0:
            return su
        sa = _sign(A)
        if su == 0 or su == sa:
            return sa
        # A and U have opposite signs: compare |A| with |U| via squares;
        # A^2 - U^2 = (A^2 - B^2 p - C^2 q) + 2BC·sqrt(pq) is a single surd.
        diff = _surd_sign(A * A - B * B * p - C * C * q, 2 * B * C, p * q)
        if diff == 0:
            return 0
        return sa if diff > 0 else su

    def __lt__(self, other: "QuadSurd") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "QuadSurd") -> bool:
        return self._cmp(other) <= 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(float(self.d))


@dataclass(frozen=True, slots=True)
class EigRecord:
    value: QuadSurd
    multiplicity: int
    tag: str  # "type1" | "type2plus" | "type2minus"
    k: int
    p: int
    mu_sq: Fraction | None = None

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise UsageError("multiplicity must be >= 1")


@dataclass(frozen=True)
class DolbeaultProvider:
    """Declared Dolbeault data: entries (k, p, μ², e_μ^{p,k}) and a positive
    lower bound M on the stored μ² values.

    Lookups go through an index of the entries keyed by (k, p) and μ² as
    numerator and denominator (which skips hashing a Fraction), built once;
    when a key repeats, its first entry is the one the index keeps.
    """

    entries: tuple[tuple[int, int, Fraction, int], ...]
    lower_bound: Fraction

    def __post_init__(self) -> None:
        if self.lower_bound <= 0:
            raise UsageError("lower bound M must be positive")
        m_num, m_den = self.lower_bound.numerator, self.lower_bound.denominator
        index: dict[tuple[int, int, int, int], tuple[int, int, Fraction, int]] = {}
        for entry in self.entries:
            k, p, mu_sq, e = entry
            s, t = mu_sq.numerator, mu_sq.denominator
            # μ² < M compared in integers; M > 0, so this catches μ² <= 0 too
            if s * m_den < m_num * t:
                if s <= 0:
                    raise UsageError("Dolbeault eigenvalue data must be positive")
                raise UsageError("declared lower bound exceeds a stored eigenvalue")
            if e < 0:
                raise UsageError("multiplicities must be nonnegative")
            index.setdefault((k, p, s, t), entry)
        object.__setattr__(self, "_index", index)

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
    m: int,
    k_range: tuple[int, int],
) -> list[EigRecord]:
    """The type-2 pairs of the keys (k, p, μ²) with k in k_range, one pair per
    key, in the order of their first entries (a repeated key is paired once,
    with the multiplicity its first entry gives).  Every key's alternating
    multiplicity is checked, so invalid data outside the range is refused
    too; only the keys inside it reach the pair function."""
    pair = _type2_pairs(r, eps, m)
    k_min, k_max = k_range
    records = []
    # the index holds the first entry of each key, in entry order
    for k, p, mu_sq, _ in provider._index.values():
        mult = alternating_multiplicity(provider, k, p, mu_sq)
        if mult == 0 or not k_min <= k <= k_max:
            continue
        plus, minus = pair(k, p, mu_sq)
        records.append(EigRecord(plus, mult, "type2plus", k, p, mu_sq))
        records.append(EigRecord(minus, mult, "type2minus", k, p, mu_sq))
    return records


def alternating_multiplicity(
    provider: DolbeaultProvider, k: int, p: int, mu_sq: Fraction
) -> int:
    """d^{p} = e^{p} - e^{p-1} + ... ± e^{0}, as d^{q} = e^{q} - d^{q-1};
    negative values mean the provider is not a legal Dolbeault spectrum."""
    total = 0
    for q in range(p + 1):
        total = provider.e(k, q, mu_sq) - total
    if total < 0:
        raise InvalidDolbeaultData(
            f"alternating multiplicity {total} < 0 at (k={k}, p={p}, mu_sq={mu_sq})"
        )
    return total


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
