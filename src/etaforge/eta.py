"""Assembly of the exact reduced eta invariant and its consistency checks.

The invariant splits into three exact rational pieces:

    value = adiabatic_limit + flow_factor · (delta_flow + transgression)

A ConventionSet carries the three knobs the source formulas leave ambiguous
(the orientation of the curvature/class dictionary, an overall factor on the
flow+transgression bracket, and the transgression normalization).  They are
fixed once by calibrate() against three independent targets: continuity in r
at 0, the Atiyah-Patodi-Singer difference relation, and the published
dimension-3 surface formula.  Silent guessing is a bug; an unsatisfiable
calibration raises NoConsistentConvention.

Every piece is a plain rational; no formal parameter is carried.

- The adiabatic limit integrates Â(X) · f(w/2·u) · exp(r·w·u) with
  w = sign_c·c₁(L), every factor at order m, the only one the integral
  reads; Â(X) is cached per geometry.  At integer r, f is the odd bracket
  (coth z - 1/z)/2 and a Hodge-number correction is added; otherwise f is the
  fractional bracket (exp(a z)/sinh z - 1/z)/2 built at the rational
  a = 1 - 2{r}.
- The transgression ∫₀^ε dδ ∫_X Ω₂ exp(Ω₀) is closed in δ by the
  fundamental theorem of calculus: exp(Ω₀) is the Â class of the tangent
  roots shifted by δw plus the root δw, and d/dδ exp(Ω₀) = w·Ω₂·exp(Ω₀), so
  the integral is ([u^{m+1}]Â_ε - [u^{m+1}]Â_0) / (sign_c·c₁(L)) times ∫u^m
  (see transgression()).
- The asymptotic expression is flow_factor · (∫₀^r χ - Σ_{k=1}^{⌈r+εm/2⌉-1} χ(k))
  with χ the Riemann-Roch polynomial, kept as its coefficient tuple.  The
  sum over k is closed by Faulhaber's formula, so its cost does not depend
  on r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cohomology import (
    Geometry,
    ahat_class,
    ahat_series,
    hrr_chi,
    index_integral,
    integrate,
    surface_geometry,
)
from .errors import NoConsistentConvention, UnknownHodgeData, UsageError
from .flow import flow_in_delta_closed, flow_in_s_oracle
from .hodge import HodgeProvider, SurfaceHodge
from .scalars import (
    RationalLike,
    TruncSeries,
    bernoulli,
    exp_series,
    fractional_bracket,
    fractional_part,
    universal_series,
)
from .spectrum import DolbeaultProvider, kernel_dimension, type1_zeros, validate_epsilon


@dataclass(frozen=True)
class ConventionSet:
    sign_c: int                      # ±1, orientation of the class dictionary
    flow_factor: int                 # 1 or 2, multiplies (flow + transgression)
    transgression_scale: Fraction    # rational normalization of the transgression

    def __post_init__(self) -> None:
        if self.sign_c not in (1, -1):
            raise UsageError("sign_c must be ±1")
        if self.flow_factor not in (1, 2):
            raise UsageError("flow_factor must be 1 or 2")


# Output of calibrate() on the default suite; tests re-derive it.
DEFAULT_CONVENTIONS = ConventionSet(
    sign_c=-1, flow_factor=1, transgression_scale=Fraction(1)
)


@dataclass(frozen=True)
class EtaValue:
    value: Fraction
    adiabatic_limit: Fraction
    flow_term: Fraction
    transgression_term: Fraction
    kernel_dim: int
    conventions: ConventionSet
    validity_flag: bool

    @property
    def unreduced(self) -> Fraction:
        """The unreduced invariant: value is the reduced one ½(dim ker + η)."""
        return 2 * self.value - self.kernel_dim


def _hodge_correction(g: Geometry, hp: HodgeProvider, k: int) -> Fraction:
    total = Fraction(0)
    if g.m % 2 == 0:
        total += hp.h(g.m // 2, k)
    half_m = Fraction(g.m, 2)
    for p in range(g.m + 1):
        if p > half_m:
            total += (-1) ** p * hp.h(p, k)
        elif p < half_m:
            total -= (-1) ** p * hp.h(p, k)
    return total / 2


def _adiabatic_bracket(
    g: Geometry, conv: ConventionSet, f: TruncSeries, r: RationalLike
) -> Fraction:
    """∫ Â · f(w/2·u) · exp(r·w·u) with w = sign_c·c₁(L), the oriented
    line-bundle class; f(w/2·u) is f with its uⁿ coefficient times (w/2)ⁿ."""
    w = conv.sign_c * g.c1L
    f_half_w = TruncSeries(g.m, [c * (w / 2) ** n for n, c in enumerate(f.coeffs[: g.m + 1])])
    return integrate(g, ahat_class(g) * f_half_w * exp_series(g.m, r * w))


def adiabatic_limit(
    g: Geometry,
    hp: HodgeProvider,
    r: Fraction,
    conv: ConventionSet = DEFAULT_CONVENTIONS,
) -> Fraction:
    """Limit of the reduced eta invariant as the base metric blows up.

    Independent of ε.  For integer r the integral term uses the odd bracket
    series plus a Hodge-number correction; otherwise the fractional-part
    bracket with a = 1 - 2{r}.
    """
    r = Fraction(r)
    if r.denominator == 1:
        f = universal_series("f_integer", g.m)
        return _adiabatic_bracket(g, conv, f, r) + _hodge_correction(g, hp, int(r))
    f = fractional_bracket(1 - 2 * fractional_part(r), g.m)
    return _adiabatic_bracket(g, conv, f, r)


def transgression(
    g: Geometry, eps: Fraction, conv: ConventionSet = DEFAULT_CONVENTIONS
) -> Fraction:
    """Cylinder correction term: ∫₀^ε dδ ∫_X Ω₂ · exp(Ω₀), exactly.

    With w = sign_c·c₁(L)·u, Ω₀(δ) = 2Σᵢ p(xᵢ + δw) + 2p(δw) and Ω₂ is the
    same sum over p', for p the even log-bracket series; the factor 2 on the
    trace and scalar pieces is pinned by the m = 1 calibration target.
    Hence d/dδ exp(Ω₀) = w·Ω₂·exp(Ω₀), and exp(Ω₀) = Â_δ is the Â class of
    the roots xᵢ + δw together with δw.  Taken at order m + 1, where
    multiplying by w raises u^m to u^{m+1}, the fundamental theorem of
    calculus in δ gives

        ∫₀^ε dδ [u^m] Ω₂·exp(Ω₀) = ([u^{m+1}]Â_ε - [u^{m+1}]Â_0) / (sign_c·c₁(L)),

    so the δ-integral is a difference of two Â coefficients.  The division
    needs c₁(L) ≠ 0, as for the positive L of a circle bundle.
    """
    if eps < 0:
        raise UsageError("eps must be nonnegative")
    if g.c1L == 0:
        raise UsageError("the transgression needs c1(L) != 0")
    w = conv.sign_c * g.c1L

    def top_coefficient(delta: Fraction) -> Fraction:
        """[u^{m+1}]Â_δ: the tangent roots shifted by δw, and the root δw."""
        roots = [root + delta * w for root in g.tangent_roots] + [delta * w]
        return ahat_series(roots, g.m + 1).coeffs[g.m + 1]

    trans = (top_coefficient(eps) - top_coefficient(Fraction(0))) / w
    return trans * g.top_integral * conv.transgression_scale


def exact_eta(
    g: Geometry,
    hp: HodgeProvider,
    r: Fraction,
    eps: Fraction,
    conv: ConventionSet = DEFAULT_CONVENTIONS,
    provider: DolbeaultProvider | None = None,
) -> EtaValue:
    """Exact reduced eta invariant at coupling r and adiabatic parameter ε."""
    r, eps = Fraction(r), Fraction(eps)
    if eps <= 0:
        raise UsageError("eps must be positive")
    adia = adiabatic_limit(g, hp, r, conv)
    flow_term = Fraction(flow_in_delta_closed(g, hp, r, eps))
    trans = transgression(g, eps, conv)
    value = adia + conv.flow_factor * (flow_term + trans)
    validity = validate_epsilon(eps, provider) if provider is not None else True
    return EtaValue(
        value=value,
        adiabatic_limit=adia,
        flow_term=flow_term,
        transgression_term=trans,
        kernel_dim=kernel_dimension(g, hp, r, eps),
        conventions=conv,
        validity_flag=validity,
    )


def asymptotic_eta(
    g: Geometry,
    hp: HodgeProvider,
    r: Fraction,
    eps: Fraction,
    conv: ConventionSet = DEFAULT_CONVENTIONS,
) -> Fraction:
    """Leading asymptotic expression; differs from exact_eta by O(1) in r."""
    r, eps = Fraction(r), Fraction(eps)
    if r < 0:
        raise UsageError("r must be nonnegative")
    if eps <= 0:
        raise UsageError("eps must be positive")
    # k < r + εm/2: at a type-1 zero mode r = k - εm/2, χ(k) is not counted yet
    n = math.ceil(r + eps * Fraction(g.m, 2)) - 1
    below = sum(coeff * _power_sum(a, n) for a, coeff in enumerate(hrr_chi(g)))
    return (index_integral(g, r) - below) * conv.flow_factor


def _power_sum(a: int, n: int) -> Fraction:
    """Σ_{k=1}^{n} k^a for n ≥ 0 by Faulhaber's formula,
    Σ_{j≤a} C(a+1, j)·(-1)^j·B_j·n^{a+1-j} / (a+1)."""
    b = bernoulli(a)
    terms = (math.comb(a + 1, j) * (-1) ** j * b[j] * n ** (a + 1 - j) for j in range(a + 1))
    return sum(terms) / (a + 1)


@dataclass(frozen=True)
class ApsCheck:
    lhs: Fraction
    rhs: Fraction
    passed: bool


def _aps_rhs(
    g: Geometry, hp: HodgeProvider, r0: Fraction, r1: Fraction, eps: Fraction
) -> Fraction:
    """Knob-free right-hand side of the APS difference relation on (r0, r1]:
    the net s-flow plus the index-integral difference.

    The reduced invariant counts a zero mode as nonnegative, so a downward
    family (p even) that is zero at r1 has not crossed yet, while one that
    is zero at r0 crosses just after it; the oracle's (r0, r1] count is
    corrected at both endpoints.
    """
    net = flow_in_s_oracle(g, hp, r0, r1, eps).net
    for r, sign in ((r1, 1), (r0, -1)):
        net += sign * sum(hp.h(p, k) for p, k in type1_zeros(g, r, eps) if p % 2 == 0)
    return Fraction(net) + index_integral(g, r1) - index_integral(g, r0)


def aps_difference_check(
    g: Geometry,
    hp: HodgeProvider,
    r0: Fraction,
    r1: Fraction,
    eps: Fraction,
    conv: ConventionSet = DEFAULT_CONVENTIONS,
) -> ApsCheck:
    """η̄(r1) - η̄(r0) against flow_factor·(spectral flow + index integral)."""
    r0, r1 = Fraction(r0), Fraction(r1)
    if r0 == r1:
        return ApsCheck(Fraction(0), Fraction(0), True)
    lhs = (
        exact_eta(g, hp, r1, eps, conv).value
        - exact_eta(g, hp, r0, eps, conv).value
    )
    rhs = conv.flow_factor * _aps_rhs(g, hp, r0, r1, Fraction(eps))
    return ApsCheck(lhs, rhs, lhs == rhs)


@dataclass(frozen=True)
class CalibrationResult:
    conventions: ConventionSet
    t1_ok: bool
    t2_ok: bool
    t3_ok: bool
    candidates_checked: int
    note: str = ""


_SCALE_CANDIDATES = (
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2),
    Fraction(-2),
)

_T2_WINDOWS = (
    (Fraction(0), Fraction(1, 2)),
    (Fraction(0), Fraction(97, 100)),
    (Fraction(1, 2), Fraction(3, 2)),
    (Fraction(6, 5), Fraction(11, 4)),
    (Fraction(2), Fraction(19, 2)),
)
_T2_EPS = (Fraction(1, 10), Fraction(1, 100))


def default_calibration_suite() -> list[tuple[Geometry, HodgeProvider]]:
    suite: list[tuple[Geometry, HodgeProvider]] = []
    for degree in (1, 2):
        suite.append((surface_geometry(0, degree), SurfaceHodge(0, degree)))
    suite.append((surface_geometry(1, 2), SurfaceHodge(1, 2, h00=1)))
    suite.append((surface_geometry(2, 3), SurfaceHodge(2, 3, h00=0)))
    return suite


def _no_kernel_at_zero(g: Geometry, hp: HodgeProvider) -> bool:
    """Every h(p, 0) is known and zero.  A surface whose k = 0 data is
    unknown is skipped by T1 and T2; any other provider error propagates."""
    try:
        return all(hp.h(p, 0) == 0 for p in range(g.m + 1))
    except UnknownHodgeData:
        return False


def _t1_holds(suite, conv: ConventionSet) -> bool:
    """Continuity at r -> 0+ on every geometry with no kernel data at k = 0."""
    for g, hp in suite:
        if not _no_kernel_at_zero(g, hp):
            continue
        # on (0,1) the bracket is a polynomial in r with a = 1 - 2r, so its
        # r -> 0+ limit is its value at a = 1, r = 0
        f = fractional_bracket(1, g.m)
        limit = _adiabatic_bracket(g, conv, f, 0)
        if limit != adiabatic_limit(g, hp, Fraction(0), conv):
            return False
    return True


def calibrate(
    suite: Sequence[tuple[Geometry, HodgeProvider]] | None = None,
) -> CalibrationResult:
    """Search the convention knobs for the unique internally consistent set.

    T1: continuity of the adiabatic limit at r = 0 when the kernel data
        vanishes; T2: the APS difference relation on windows of the surfaces
        with no kernel data at k = 0; T3: the dimension-3 surface
        transgression value ε²l/12 - εχ/12, with l = c₁(L) and χ the sum of
        the tangent roots.

    The transgression cancels in η̄(r1) - η̄(r0), so the APS relation holds
    on a window exactly when ΔA == flow_factor·R.  ΔA, the adiabatic-limit
    difference, depends on sign_c but not on ε; R, the knob-free APS
    right-hand side minus the δ-flow difference, is built once for both
    signs.  T1, ΔA and the T3 transgressions are computed once per sign (at
    flow_factor 1, transgression_scale 1), and the candidates of a sign are
    then decided by rational arithmetic.
    """
    if suite is None:
        suite = default_calibration_suite()
    surfaces = [(g, hp) for g, hp in suite if g.m == 1]
    if not surfaces:
        raise UsageError("calibration suite must contain surface presets")
    windows = None  # (g, hp, r0, r1, R on each ε), built when a sign first passes T1
    survivors: list[ConventionSet] = []
    t3: dict[int, list[tuple[Fraction, Fraction]]] = {}  # for signs with survivors
    for sign_c in (1, -1):
        unit = ConventionSet(sign_c, 1, Fraction(1))
        if not _t1_holds(suite, unit):
            continue
        if windows is None:
            windows = [
                (g, hp, r0, r1, [
                    _aps_rhs(g, hp, r0, r1, eps)
                    - (flow_in_delta_closed(g, hp, r1, eps) - flow_in_delta_closed(g, hp, r0, eps))
                    for eps in _T2_EPS
                ])
                for g, hp in surfaces
                if _no_kernel_at_zero(g, hp)
                for r0, r1 in _T2_WINDOWS
            ]
        flows = [1, 2]
        for g, hp, r0, r1, rest in windows:
            d_adia = adiabatic_limit(g, hp, r1, unit) - adiabatic_limit(g, hp, r0, unit)
            flows = [f for f in flows if all(d_adia == f * r for r in rest)]
        if flows:
            t3[sign_c] = [
                (transgression(g, eps, unit), eps**2 * g.c1L / 12 - eps * sum(g.tangent_roots) / 12)
                for g, _ in surfaces
                for eps in (Fraction(1, 10), Fraction(1, 7))
            ]
            survivors += [ConventionSet(sign_c, f, scale) for f in flows for scale in _SCALE_CANDIDATES]
    checked = 2 * 2 * len(_SCALE_CANDIDATES)  # sign_c × flow_factor × scale
    if not survivors:
        raise NoConsistentConvention(
            "no (sign_c, flow_factor, transgression_scale) satisfies "
            "continuity and the APS relation on the calibration suite"
        )
    full = [
        conv
        for conv in survivors
        if all(conv.transgression_scale * trans == target for trans, target in t3[conv.sign_c])
    ]
    if len(full) == 1:
        return CalibrationResult(full[0], True, True, True, checked)
    if not full:
        return CalibrationResult(
            survivors[0],
            True,
            True,
            False,
            checked,
            note="transgression target T3 not met; deviation recorded",
        )
    raise NoConsistentConvention(
        f"calibration is ambiguous: {len(full)} convention sets satisfy all targets"
    )
