"""Limit spectral measure at a model point: half-power kernels supported at
the lattice 2k·λ with weights 2^{Z(k)}, normalized so its Laplace transform
is the tanh heat-trace density.

This module is deliberately floating-point; everything else in the library
is exact.  Both test functions it applies integrate in closed form against a
kernel (s - o)^{n_y - 1/2}: e^{-ts} gives an incomplete gamma function at the
half-integer n_y + 1/2 (from `math.erf` or a power series), and the
piecewise-linear bump gives a sum of powers.  The Γ(n_y + 1/2) factor in the
normalization is part of the definition used here: without it the n = 1 case
misses the Laplace target by √π.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError

# most lattice points a check enumerates; a larger lattice (tiny lambdas
# against a long truncation) is refused before enumeration, instead of
# running for hours
_MAX_LATTICE_POINTS = 100_000


@dataclass(frozen=True)
class ModelPoint:
    n: int                      # odd ambient dimension
    lambdas: tuple[float, ...]  # positive rotation eigenvalues, length m_y

    def __post_init__(self) -> None:
        if self.n % 2 != 1 or self.n < 1:
            raise UsageError("ambient dimension n must be odd and positive")
        if not all(0 < l < math.inf for l in self.lambdas):
            raise UsageError("lambdas must be positive and finite")
        if 2 * len(self.lambdas) >= self.n:
            raise UsageError("too many lambdas: need 2·m_y + 1 <= n")

    @property
    def m_y(self) -> int:
        return len(self.lambdas)

    @property
    def n_y(self) -> int:
        return (self.n - 2 * self.m_y - 1) // 2

    def weight(self) -> float:
        norm = (4 * math.pi) ** (self.n / 2) * math.gamma(self.n_y + 0.5)
        return math.prod(self.lambdas, start=1.0) / norm


def check_lattice_size(pt: ModelPoint, s_max: float) -> None:
    """Refuse more than _MAX_LATTICE_POINTS lattice points up to s_max, counted as
    ∏(⌊s_max/2λ⌋ + 1) with each factor capped (so s_max/2λ = ∞ is refused)."""
    size = math.prod(
        math.floor(min(s_max / (2 * lam), _MAX_LATTICE_POINTS)) + 1 for lam in pt.lambdas
    )
    if size > _MAX_LATTICE_POINTS:
        raise UsageError(
            f"the lattice up to s_max={s_max} has more than {_MAX_LATTICE_POINTS} points"
        )


def _lattice(pt: ModelPoint, s_max: float) -> list[tuple[float, int]]:
    """All (offset 2k·λ, Z(k)) with offset <= s_max, Z = #nonzero components,
    in lexicographic order of k."""
    check_lattice_size(pt, s_max)
    points = [(0.0, 0)]
    for lam in pt.lambdas:
        grown = []
        for offset, z in points:
            k = 0
            while offset + 2 * k * lam <= s_max:
                grown.append((offset + 2 * k * lam, z + (k > 0)))
                k += 1
        points = grown
    return points


def _gamma_p(n: int, x: float) -> float:
    """Regularized lower incomplete gamma P(n + 1/2, x), n >= 0 an integer:
    erf√x - e^{-x}·Σ_{j<n} x^{j+1/2}/Γ(j + 3/2).  For n > 0 and x < n + 3/2
    those two terms nearly cancel, so the power series
    P(a, x) = x^a e^{-x}/Γ(a + 1)·Σ_k x^k/((a + 1)···(a + k)) is used there."""
    a = n + 0.5
    if x <= 0:
        return 0.0
    if n > 0 and x < a + 1:
        term = total = 1.0
        k = 0
        while term > total * 1e-17:
            k += 1
            term *= x / (a + k)
            total += term
        return total * math.exp(a * math.log(x) - x - math.lgamma(a + 1))
    partial, term = 0.0, math.exp(-x) * math.sqrt(x) / math.gamma(1.5)
    for j in range(n):
        partial += term
        term *= x / (j + 1.5)
    return math.erf(math.sqrt(x)) - partial


@dataclass(frozen=True)
class LaplaceCheck:
    measured: float
    target: float
    rel_error: float
    tail_bound: float


def laplace_check(pt: ModelPoint, t: float, s_max: float) -> LaplaceCheck:
    """Laplace transform of the measure, truncated at s_max, against the tanh
    heat-trace density (4πt)^{-n/2} ∏ tλ/tanh(tλ), with the exact tail.

    Each lattice point contributes 2^Z e^{-t·offset} Γ(a) t^{-a}
    P(a, t(s_max - offset)), a = n_y + 1/2; without truncation the lattice sum
    of 2^Z e^{-t·offset} is ∏ coth(tλ), which gives the target."""
    if not 0 < t < math.inf:
        raise UsageError("t must be positive and finite")
    if not 0 < s_max < math.inf:
        raise UsageError("s_max must be positive and finite")
    included = 0.0
    for offset, z in _lattice(pt, s_max):
        included += 2**z * math.exp(-t * offset) * _gamma_p(pt.n_y, t * (s_max - offset))
    scale = pt.weight() * math.gamma(pt.n_y + 0.5) * t ** -(pt.n_y + 0.5)
    measured = scale * included
    target = (4 * math.pi * t) ** (-pt.n / 2)
    for lam in pt.lambdas:
        target *= t * lam / math.tanh(t * lam)
    full_sum = math.prod(1.0 / math.tanh(t * lam) for lam in pt.lambdas)
    tail = scale * (full_sum - included)
    rel = abs(measured - target) / abs(target)
    return LaplaceCheck(measured, target, rel, tail)


@dataclass(frozen=True)
class NearZeroBound:
    value: float
    ratio: float


def near_zero_bound(pt: ModelPoint, eps_support: float) -> NearZeroBound:
    """Mass of a canonical bump (1 on [0, ε/2], linear to 0 at ε) against the
    measure; the ratio value/√ε stays bounded as ε shrinks.

    With u = s - offset and a = n_y + 1/2, a lattice point below ε contributes
    ∫_0^low u^{a-1} du + (2/ε)∫_low^top (top - u) u^{a-1} du, where the bump
    starts to fall at u = low and vanishes at u = top."""
    if not 0 < eps_support < 1:
        raise UsageError("eps_support must lie in (0, 1)")
    a = pt.n_y + 0.5
    total = 0.0
    for offset, z in _lattice(pt, eps_support):
        top = eps_support - offset
        low = max(eps_support / 2 - offset, 0.0)
        ramp = top * (top**a - low**a) / a - (top ** (a + 1) - low ** (a + 1)) / (a + 1)
        total += 2**z * (low**a / a + 2 * ramp / eps_support)
    value = pt.weight() * total
    return NearZeroBound(value, value / math.sqrt(eps_support))
