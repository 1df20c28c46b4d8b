"""Spectral flow of the type-1 eigenvalue families.

Two parameters move eigenvalues through zero: the coupling strength s (at
fixed ε) and the adiabatic parameter δ swept over [0, ε] at fixed r.  Each
flow is available both as a closed-form count and as a brute-force crossing
enumeration; the two must agree exactly, boundary cases included.

Endpoint convention (frozen after reconciling the two): a family counts via
(σ(ε) - σ(0⁺))/2, where σ is the sign of the eigenvalue, a zero at the far
endpoint counts as +1 (it enters the kernel), and a zero at the start takes
the sign of its slope (it is about to leave zero, not crossing).  Families
flat in the parameter (p = m/2) never contribute.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .cohomology import Geometry
from .errors import UsageError
from .hodge import HodgeProvider, check_k_range


class Crossing(NamedTuple):
    parameter_value: Fraction
    k: int
    p: int
    multiplicity: int
    direction: int  # +1 upward through zero, -1 downward


class FlowResult(NamedTuple):
    net: int
    crossings: tuple[Crossing, ...]


def flow_in_s_oracle(
    g: Geometry, hp: HodgeProvider, r0: Fraction, r1: Fraction, eps: Fraction
) -> FlowResult:
    """Crossings of λ = (-1)^p (k + ε(p - m/2) - s) for s in (r0, r1]."""
    if r0 >= r1:
        raise UsageError("window requires r0 < r1")
    if eps <= 0:
        raise UsageError("eps must be positive")
    half_m = Fraction(g.m, 2)
    crossings = []
    for p in range(g.m + 1):
        shift = eps * (p - half_m)
        # s* = k + shift in (r0, r1]
        k_lo = math.floor(r0 - shift) + 1
        k_hi = math.floor(r1 - shift)
        check_k_range(k_lo, k_hi)
        direction = -((-1) ** p)
        for k in range(k_lo, k_hi + 1):
            mult = hp.h(p, k)
            if mult == 0:
                continue
            crossings.append(Crossing(k + shift, k, p, mult, direction))
    crossings.sort(key=lambda c: (c.parameter_value, c.k, c.p))
    net = sum(c.direction * c.multiplicity for c in crossings)
    return FlowResult(net, tuple(crossings))


def flow_in_delta_closed(
    g: Geometry, hp: HodgeProvider, r: Fraction, eps: Fraction
) -> int:
    """Closed-form count of δ-crossings over [0, ε] at fixed r.

    Four floor/ceiling sums over p above/below m/2 split by parity.  The
    limits are chosen so that a family vanishing exactly at δ = 0 is never
    counted (for r not an integer they reduce to the familiar ⌊r⌋/⌈r⌉
    expressions).
    """
    if eps <= 0:
        raise UsageError("eps must be positive")
    half_m = Fraction(g.m, 2)
    total = 0
    for p in range(g.m + 1):
        q = p - half_m
        if q == 0:
            continue
        shifted = r - eps * q
        if q > 0 and p % 2 == 0:
            k_lo, k_hi, sign = math.ceil(shifted), math.ceil(r) - 1, +1
        elif q > 0:
            k_lo, k_hi, sign = math.floor(shifted) + 1, math.ceil(r) - 1, -1
        elif p % 2 == 0:
            k_lo, k_hi, sign = math.floor(r) + 1, math.ceil(shifted) - 1, -1
        else:
            k_lo, k_hi, sign = math.floor(r) + 1, math.floor(shifted), +1
        check_k_range(k_lo, k_hi)
        for k in range(k_lo, k_hi + 1):
            total += sign * hp.h(p, k)
    return total


def flow_in_delta_oracle(
    g: Geometry, hp: HodgeProvider, r: Fraction, eps: Fraction
) -> FlowResult:
    """Brute-force δ-crossing enumeration of λ(δ) = (-1)^p (k + δ(p-m/2) - r).

    Counts each family by (σ(ε) - σ(0⁺))/2 per the module convention, which
    reproduces the closed form on all boundary cases δ* ∈ {0, ε}.
    """
    if eps <= 0:
        raise UsageError("eps must be positive")
    half_m = Fraction(g.m, 2)
    crossings = []
    for p in range(g.m + 1):
        q = p - half_m
        if q == 0:
            continue
        slope_sign = 1 if ((-1) ** p) * q > 0 else -1
        # candidate k with crossing parameter δ* = (r - k)/q inside [0, ε]
        endpoints = sorted([r, r - eps * q])
        k_lo = math.ceil(endpoints[0]) - 1
        k_hi = math.floor(endpoints[1]) + 1
        check_k_range(k_lo, k_hi)
        for k in range(k_lo, k_hi + 1):
            delta_star = (r - k) / q
            if delta_star < 0 or delta_star > eps:
                continue
            v0 = (-1) ** p * (k - r)
            sigma0 = slope_sign if v0 == 0 else (1 if v0 > 0 else -1)
            veps = (-1) ** p * (k + eps * q - r)
            sigma1 = 1 if veps >= 0 else -1
            count = (sigma1 - sigma0) // 2
            if count == 0:
                continue
            mult = hp.h(p, k)
            if mult == 0:
                continue
            crossings.append(Crossing(delta_star, k, p, mult, count))
    crossings.sort(key=lambda c: (c.parameter_value, c.k, c.p))
    net = sum(c.direction * c.multiplicity for c in crossings)
    return FlowResult(net, tuple(crossings))
