"""Assembled eta invariant: closed-form values, APS relation, calibration."""

import time
from fractions import Fraction

import pytest

import etaforge.eta as eta_mod
from etaforge.cohomology import (
    Geometry,
    index_integral,
    integrate,
    projective_like_geometry,
    surface_geometry,
)
from etaforge.errors import NoConsistentConvention, UsageError
from etaforge.eta import (
    DEFAULT_CONVENTIONS,
    ConventionSet,
    adiabatic_limit,
    aps_difference_check,
    asymptotic_eta,
    calibrate,
    default_calibration_suite,
    exact_eta,
    transgression,
)
from etaforge.hodge import HrrVanishingHodge, SurfaceHodge
from etaforge.scalars import TruncSeries, fractional_bracket, universal_series
from etaforge.spectrum import DolbeaultProvider
from test_cohomology import _compose


def _genus0(l=1):
    return surface_geometry(0, l), SurfaceHodge(0, l)


def test_convention_set_validation():
    for sign_c, flow_factor in ((0, 1), (1, 3), (-1, 0)):
        with pytest.raises(UsageError):
            ConventionSet(sign_c, flow_factor, Fraction(1))
        with pytest.raises(UsageError):
            ConventionSet(sign_c=sign_c, flow_factor=flow_factor, transgression_scale=Fraction(1))
        with pytest.raises(UsageError):
            ConventionSet(sign_c, flow_factor=flow_factor, transgression_scale=Fraction(1))


def test_adiabatic_genus0_piecewise_values():
    for l in (1, 2, 5):
        g, hp = _genus0(l)
        assert adiabatic_limit(g, hp, Fraction(0)) == Fraction(-l, 12)
        for r in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
            assert adiabatic_limit(g, hp, r) == Fraction(-l, 12) + r * r * l / 2
        for r in (Fraction(11, 10), Fraction(3, 2)):
            assert adiabatic_limit(g, hp, r) == Fraction(-13 * l, 12) + r * r * l / 2


def test_adiabatic_integer_hodge_correction():
    # torus: Hodge correction at k = 0 is -h00 (p=1 enters with -1, p=0 too)
    for l in (1, 2, 3):
        g = surface_geometry(1, l)
        hp = SurfaceHodge(1, l, h00=1)
        assert adiabatic_limit(g, hp, Fraction(0)) == Fraction(-l, 12) - 1


def test_adiabatic_independent_of_eps_by_construction():
    # the API does not even take eps; this pins the signature
    g, hp = _genus0(2)
    assert adiabatic_limit(g, hp, Fraction(1, 4)) == Fraction(-2, 12) + Fraction(1, 16)


def test_transgression_surface_closed_form():
    for genus in (0, 1, 2):
        chi = 2 - 2 * genus
        for l in (1, 2, 3):
            g = surface_geometry(genus, l)
            for eps in (Fraction(1, 10), Fraction(1, 7), Fraction(1, 2)):
                expected = eps**2 * l / 12 - Fraction(eps * chi, 12)
                assert transgression(g, eps) == expected
    assert transgression(surface_geometry(0, 1), Fraction(0)) == 0


def _poly_mul(xs, ys):
    out = [Fraction(0)] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += x * y
    return out


def _integral_of_interpolant(nodes, values, upper):
    """∫₀^upper of the polynomial through (nodes, values), exactly: the
    Lagrange basis polynomials are expanded and integrated term by term."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        basis = [Fraction(1)]
        for j, xj in enumerate(nodes):
            if j != i:
                basis = _poly_mul(basis, [-xj / (xi - xj), 1 / (xi - xj)])
        total += yi * sum(c * upper ** (n + 1) / (n + 1) for n, c in enumerate(basis))
    return total


def _delta_formal_transgression(g, eps, conv):
    """∫₀^ε dδ ∫_X Ω₂ · exp(Ω₀), built from its definition.

    Ω₀ = 2Σ p(x + δw) and Ω₂ = 2Σ p'(x + δw) over the tangent roots x and the
    root 0, with w = sign_c·c₁(L), p the even log-bracket series and p' its
    termwise derivative.  The integrand has degree at most m in δ, so its
    values at m + 1 rational nodes give it exactly, and the interpolant is
    integrated over [0, ε]."""
    p = universal_series("p_ahat", g.m)
    longer = universal_series("p_ahat", g.m + 1)
    p_deriv = TruncSeries(g.m, [longer.coeffs[n] * n for n in range(1, g.m + 2)])
    w = conv.sign_c * g.c1L

    def integrand(delta):
        omega0 = TruncSeries(g.m, [0])
        omega2 = TruncSeries(g.m, [0])
        for root in (*g.tangent_roots, 0):
            omega0 = omega0 + _compose(p, root + delta * w, g.m).scale(2)
            omega2 = omega2 + _compose(p_deriv, root + delta * w, g.m).scale(2)
        return integrate(g, omega2 * omega0.exp())

    nodes = [Fraction(j, g.m + 1) for j in range(g.m + 1)]
    values = [integrand(delta) for delta in nodes]
    return _integral_of_interpolant(nodes, values, eps) * conv.transgression_scale


@pytest.mark.parametrize("sign_c", [1, -1])
def test_transgression_matches_the_delta_formal_integral(sign_c):
    """The closed form in δ (a difference of two Â coefficients at order
    m + 1) against the δ-integral of Ω₂·exp(Ω₀) built from its definition."""
    geometries = [projective_like_geometry(m, degree) for m in (2, 3, 4, 5) for degree in (1, 2)]
    geometries += [surface_geometry(genus, l) for genus in (0, 1, 3) for l in (1, 2)]
    geometries.append(
        Geometry(3, Fraction(2), Fraction(3, 2), Fraction(-1),
                 (Fraction(1), Fraction(2, 3), Fraction(1, 3)))
    )
    for g in geometries:
        for scale in (Fraction(1), Fraction(-1, 2)):
            conv = ConventionSet(sign_c, 1, scale)
            for eps in (Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(2)):
                expected = _delta_formal_transgression(g, eps, conv)
                assert transgression(g, eps, conv) == expected, (g.label, eps, scale)


def test_transgression_refuses_a_trivial_line_bundle():
    """The closed form divides by c₁(L); a circle bundle of the theory has
    c₁(L) positive, so c₁(L) = 0 is refused instead of returning 0."""
    flat = Geometry(2, Fraction(1), Fraction(0), Fraction(0), (Fraction(0), Fraction(0)))
    curved = Geometry(2, Fraction(1), Fraction(0), Fraction(-1), (Fraction(1), Fraction(1)))
    for g in (flat, curved):
        for eps in (Fraction(0), Fraction(1, 10)):
            with pytest.raises(UsageError, match="c1"):
                transgression(g, eps)


def test_surface_eta_at_zero_closed_form():
    for genus in (0, 1):
        chi = 2 - 2 * genus
        for l in (1, 2, 3):
            g = surface_geometry(genus, l)
            hp = SurfaceHodge(genus, l, h00=1 if genus == 1 else None)
            h00 = hp.h(0, 0)
            for eps in (Fraction(1, 10), Fraction(1, 100)):
                expected = (
                    Fraction(-l, 12) - h00 + eps**2 * l / 12 - Fraction(eps * chi, 12)
                )
                got = exact_eta(g, hp, Fraction(0), eps)
                assert got.value == expected
                assert got.flow_term == 0
                assert got.unreduced == 2 * expected - got.kernel_dim


def test_aps_difference_on_half_integer_grid():
    g, hp = _genus0(1)
    eps = Fraction(1, 10)
    for j in range(20):
        r1 = Fraction(2 * j + 1, 2)
        check = aps_difference_check(g, hp, Fraction(0), r1, eps)
        assert check.passed, (r1, check.lhs, check.rhs)


def test_aps_difference_windows_with_and_without_crossings():
    g, hp = _genus0(3)
    eps = Fraction(1, 100)
    for r0, r1 in (
        (Fraction(0), Fraction(97, 100)),
        (Fraction(1, 2), Fraction(3, 2)),
        (Fraction(6, 5), Fraction(11, 4)),
        (Fraction(199, 100), Fraction(2)),
    ):
        assert aps_difference_check(g, hp, r0, r1, eps).passed


def test_continuity_at_integer_r():
    """Away from eigenvalue crossings, eta varies only through the index
    integral; integer r is not a crossing, so the two-sided limits agree."""
    g, hp = _genus0(2)
    eps = Fraction(1, 10)
    u = Fraction(1, 1000)
    for k in (1, 2, 3):
        below = exact_eta(g, hp, k - u, eps).value
        at = exact_eta(g, hp, Fraction(k), eps).value
        above = exact_eta(g, hp, k + u, eps).value
        assert at - below == index_integral(g, Fraction(k)) - index_integral(g, k - u)
        assert above - at == index_integral(g, k + u) - index_integral(g, Fraction(k))


def test_jump_at_crossing_is_minus_multiplicity():
    # the s-crossing at r* = k - eps/2 (p=0) drops eta by h^{0,k} = kl
    g, hp = _genus0(1)
    eps = Fraction(1, 10)
    u = Fraction(1, 10**6)
    for k in (1, 2, 5):
        r_star = k - eps / 2
        below = exact_eta(g, hp, r_star - u, eps).value
        above = exact_eta(g, hp, r_star + u, eps).value
        smooth = index_integral(g, r_star + u) - index_integral(g, r_star - u)
        assert above - below == smooth - k


def test_exact_minus_asymptotic_constant_genus0():
    g, hp = _genus0(1)
    eps = Fraction(1, 10)
    base = exact_eta(g, hp, Fraction(1, 4), eps).value - asymptotic_eta(
        g, hp, Fraction(1, 4), eps
    )
    for num in range(1, 80, 7):
        r = Fraction(num, 4)
        diff = exact_eta(g, hp, r, eps).value - asymptotic_eta(g, hp, r, eps)
        assert diff == base


@pytest.mark.parametrize("genus, degree, h00", [(0, 1, None), (0, 3, None), (1, 2, 0), (2, 3, 0)])
def test_exact_minus_asymptotic_constant_at_kernel_points(genus, degree, h00):
    """At a type-1 zero mode r = k ∓ εm/2 the asymptotic sum has not counted
    χ(k) yet, so the remainder is the same constant as between kernel points
    (on S³ at ε = 1/7 the sum to ⌊r + εm/2⌋ was off by 2 at r = 27/14 and by
    500 at r = 6999/14)."""
    g, hp = surface_geometry(genus, degree), SurfaceHodge(genus, degree, h00)
    eps = Fraction(1, 7)

    def remainder(r):
        return exact_eta(g, hp, r, eps).value - asymptotic_eta(g, hp, r, eps)

    base = remainder(Fraction(1, 3))
    for k in [*range(13), 500]:
        for r in (k - eps / 2, k + eps / 2):
            if r >= 0:
                assert remainder(r) == base, r


def test_power_sum_matches_the_brute_sum():
    """Faulhaber's formula, which asymptotic_eta sums χ(k) with, against the
    loop over k it replaces."""
    for a in range(34):
        brute = 0
        for n in range(60):
            assert eta_mod._power_sum(a, n) == brute, (a, n)
            brute += (n + 1) ** a


def test_asymptotic_cost_does_not_depend_on_r():
    """A huge r fails fast: a loop over every k ≤ r would take days here."""
    g = projective_like_geometry(3)
    hp = HrrVanishingHodge(g, 1)
    r = 10**12 + Fraction(2, 7)
    start = time.perf_counter()
    value = asymptotic_eta(g, hp, r, Fraction(1, 10))
    assert time.perf_counter() - start < 0.1
    assert type(value) is Fraction


def test_validity_flag_reflects_epsilon_regime():
    g, hp = _genus0(1)
    provider = DolbeaultProvider(
        entries=((0, 0, Fraction(1, 100), 1), (0, 1, Fraction(1, 100), 1)),
        lower_bound=Fraction(1, 100),
        m=1,
    )
    ok = exact_eta(g, hp, Fraction(1, 3), Fraction(1, 20), provider=provider)
    assert ok.validity_flag
    bad = exact_eta(g, hp, Fraction(1, 3), Fraction(2), provider=provider)
    assert not bad.validity_flag


def test_calibrate_finds_the_unique_convention():
    result = calibrate()
    assert result.conventions == DEFAULT_CONVENTIONS
    assert type(result.conventions) is type(DEFAULT_CONVENTIONS) is ConventionSet
    assert result.t1_ok and result.t2_ok and result.t3_ok
    assert result.candidates_checked == 24
    assert result.note == ""


def test_calibrate_builds_ahat_once_per_suite_geometry():
    import etaforge.cohomology as coh

    coh.ahat_class.cache_clear()
    calibrate()
    # every adiabatic bracket of a geometry shares one cached Â class
    assert 0 < coh.ahat_class.cache_info().misses <= len(default_calibration_suite())


def test_calibrate_requires_surface_presets():
    with pytest.raises(UsageError):
        calibrate(suite=[])


def test_calibrate_reports_t3_failure_honestly(monkeypatch):
    # remove the true transgression scale from the candidate list: T1 and T2
    # survivors remain, none meets T3, and the result says so
    monkeypatch.setattr(
        eta_mod, "_SCALE_CANDIDATES", (Fraction(-1), Fraction(1, 2), Fraction(2))
    )
    result = calibrate()
    assert result.t1_ok and result.t2_ok and not result.t3_ok
    assert "T3" in result.note


def test_calibrate_raises_on_ambiguity(monkeypatch):
    # the true scale listed twice: two candidates meet every target
    monkeypatch.setattr(eta_mod, "_SCALE_CANDIDATES", (Fraction(1), Fraction(1)))
    with pytest.raises(NoConsistentConvention, match="ambiguous"):
        calibrate()


def test_calibrate_raises_when_nothing_fits(monkeypatch):
    # an APS right-hand side off by 1 leaves no candidate meeting T2
    real = eta_mod._aps_rhs
    monkeypatch.setattr(eta_mod, "_aps_rhs", lambda *args: real(*args) + 1)
    with pytest.raises(NoConsistentConvention, match="APS relation"):
        calibrate()


def test_calibrate_skips_a_surface_with_unknown_kernel_data():
    # genus 2 without a declared h^{0,0}: T1 and T2 both skip it, T3 reads it
    suite = [
        (surface_geometry(0, 1), SurfaceHodge(0, 1)),
        (surface_geometry(2, 3), SurfaceHodge(2, 3)),
    ]
    result = calibrate(suite)
    assert result.conventions == DEFAULT_CONVENTIONS
    assert result.t1_ok and result.t2_ok and result.t3_ok


def test_default_suite_composition():
    suite = default_calibration_suite()
    assert len(suite) == 4
    assert all(g.m == 1 for g, _ in suite)


class _BrokenHodge(SurfaceHodge):
    """A provider with a bug: every lookup divides by zero."""

    def h(self, p, k):
        return 1 // 0


def test_t1_skips_only_unknown_hodge_data():
    # genus 2 without a declared h^{0,0}: the k=0 data is unknown, so T1 skips it
    suite = [(surface_geometry(2, 3), SurfaceHodge(2, 3))]
    assert eta_mod._t1_holds(suite, DEFAULT_CONVENTIONS)


class _NoKernelAtZero:
    """Hodge data that vanishes at k = 0, so T1 applies to every surface."""

    def h(self, p, k):
        return 0


def _value_at_zero(nodes, values):
    """The value at 0 of the polynomial through (nodes, values), by Lagrange
    extrapolation."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        weight = Fraction(1)
        for j, xj in enumerate(nodes):
            if j != i:
                weight *= -xj / (xi - xj)
        total += yi * weight
    return total


@pytest.mark.parametrize("sign_c", [1, -1])
def test_t1_limit_equals_symbolic_limit_in_r(sign_c, monkeypatch):
    """T1 compares the adiabatic limit at 0 with the r -> 0+ limit of the
    fractional bracket.  On (0, 1) the bracket at a = 1 - 2r is a polynomial
    in r of degree at most 2m + 1; the reference evaluates it at 2m + 4
    distinct r in (0, 1) and extrapolates exactly to r = 0.  T1 must hold
    exactly when the limit at 0 equals it."""
    conv = ConventionSet(sign_c, 1, Fraction(1))
    for g, _ in default_calibration_suite():
        n = 2 * g.m + 4
        nodes = [Fraction(j, n + 1) for j in range(1, n + 1)]
        values = [
            eta_mod._adiabatic_bracket(g, conv, fractional_bracket(1 - 2 * r, n), r)
            for r in nodes
        ]
        reference = _value_at_zero(nodes, values)
        for offset, holds in ((0, True), (Fraction(1, 7), False)):
            monkeypatch.setattr(eta_mod, "adiabatic_limit", lambda *a, v=reference + offset: v)
            assert eta_mod._t1_holds([(g, _NoKernelAtZero())], conv) is holds, (g.label, offset)


def test_provider_bug_propagates_out_of_calibration():
    suite = [(surface_geometry(0, 1), _BrokenHodge(0, 1))]
    with pytest.raises(ZeroDivisionError):
        eta_mod._t1_holds(suite, DEFAULT_CONVENTIONS)
    with pytest.raises(ZeroDivisionError):
        calibrate(suite)


def test_aps_difference_at_published_kernel_endpoint():
    # r1 = 9/10 = 1 - ε/2 is where the p=0 family with k=1 reaches zero
    g, hp = _genus0(1)
    check = aps_difference_check(g, hp, Fraction(7, 12), Fraction(9, 10), Fraction(1, 5))
    assert check.passed
    assert check.lhs == check.rhs == Fraction(1691, 7200)


@pytest.mark.parametrize(
    "genus, degree, h00, p, k",
    [(0, 1, None, 0, 1), (0, 1, None, 0, 2), (1, 2, 1, 0, 1), (1, 2, 1, 1, 0)],
)
def test_aps_difference_at_kernel_endpoints(genus, degree, h00, p, k):
    """Windows that start or end where a type-1 family k + ε(p - 1/2) is zero:
    downward (p=0) families and upward (p=1) ones."""
    g, hp = surface_geometry(genus, degree), SurfaceHodge(genus, degree, h00=h00)
    eps = Fraction(1, 5)
    r_star = k + eps * (p - Fraction(1, 2))
    assert hp.h(p, k) != 0
    for r0, r1 in ((Fraction(0), r_star), (r_star, r_star + Fraction(9, 4))):
        check = aps_difference_check(g, hp, r0, r1, eps)
        assert check.passed, (r0, r1, check.lhs, check.rhs)


def test_aps_difference_at_negative_kernel_endpoint():
    # r = -9/10 = -1 + ε/2 is where the p=1 family with k=-1 reaches zero
    g, hp = _genus0(1)
    eps = Fraction(1, 5)
    assert hp.h(1, -1) != 0
    for r0, r1, value in (
        (Fraction(-2), Fraction(-9, 10), Fraction(281, 200)),
        (Fraction(-9, 10), Fraction(1, 2), Fraction(-7, 25)),
    ):
        check = aps_difference_check(g, hp, r0, r1, eps)
        assert check.passed
        assert check.lhs == check.rhs == value


_REDUCED_SCALES = (Fraction(-1), Fraction(1, 2), Fraction(2))


def _candidates(scales):
    return [
        ConventionSet(sign_c, flow_factor, scale)
        for sign_c in (1, -1)
        for flow_factor in (1, 2)
        for scale in scales
    ]


@pytest.fixture(scope="module")
def brute_verdicts():
    """(T1, T2, T3) of every default candidate, evaluated candidate by candidate:
    T2 by aps_difference_check on every window, T3 by transgression."""
    suite = default_calibration_suite()
    verdicts = {}
    for conv in _candidates(eta_mod._SCALE_CANDIDATES):
        t2 = all(
            aps_difference_check(g, hp, r0, r1, eps, conv).passed
            for g, hp in suite
            if g.m == 1 and hp.h(0, 0) == 0 and hp.h(1, 0) == 0
            for eps in (Fraction(1, 10), Fraction(1, 100))
            for r0, r1 in eta_mod._T2_WINDOWS
        )
        t3 = all(
            transgression(g, eps, conv)
            == eps**2 * g.c1L / 12 - eps * sum(g.tangent_roots) / 12
            for g, _ in suite
            if g.m == 1
            for eps in (Fraction(1, 10), Fraction(1, 7))
        )
        verdicts[conv] = (eta_mod._t1_holds(suite, conv), t2, t3)
    return verdicts


@pytest.mark.parametrize("scales", [None, _REDUCED_SCALES])
def test_calibration_matches_per_candidate_brute_force(brute_verdicts, monkeypatch, scales):
    if scales is not None:
        monkeypatch.setattr(eta_mod, "_SCALE_CANDIDATES", scales)
    candidates = _candidates(eta_mod._SCALE_CANDIDATES)
    survivors = [c for c in candidates if brute_verdicts[c][0] and brute_verdicts[c][1]]
    full = [c for c in survivors if brute_verdicts[c][2]]
    if full:
        expected = eta_mod.CalibrationResult(full[0], True, True, True, len(candidates))
    else:
        expected = eta_mod.CalibrationResult(
            survivors[0], True, True, False, len(candidates),
            note="transgression target T3 not met; deviation recorded",
        )
    assert len(full) <= 1 and survivors
    assert calibrate() == expected
