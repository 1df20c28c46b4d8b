"""Eigenvalue enumeration: exact surds vs floating oracles, block identities."""

import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etaforge.spectrum as spectrum_mod
from etaforge.cohomology import projective_like_geometry, surface_geometry
from etaforge.errors import InvalidDolbeaultData, UsageError
from etaforge.hodge import SurfaceHodge, TableHodge
from etaforge.spectrum import (
    DolbeaultProvider,
    EigRecord,
    QuadSurd,
    alternating_multiplicity,
    finite_eta_partial,
    kernel_dimension,
    type1_eigenvalues,
    type1_zeros,
    type2_eigenvalues,
    type2_records,
    validate_epsilon,
)

_frac = st.fractions(min_value=-6, max_value=6, max_denominator=8)
_rad = st.sampled_from([Fraction(0), Fraction(2), Fraction(3), Fraction(5),
                        Fraction(7), Fraction(4), Fraction(9), Fraction(8, 9)])


def _mp(s: QuadSurd):
    return mpmath.mpf(s.a.numerator) / s.a.denominator + (
        mpmath.mpf(s.b.numerator) / s.b.denominator
    ) * mpmath.sqrt(mpmath.mpf(s.d.numerator) / s.d.denominator)


def test_perfect_square_normalization():
    s = QuadSurd.make(Fraction(1), Fraction(2), Fraction(9, 4))
    assert s.b == 0 and s.a == 4
    t = QuadSurd.make(0, 1, 2)
    assert t.b != 0


@settings(max_examples=200, deadline=None)
@given(_frac, _frac, _rad)
def test_surd_sign_matches_high_precision(a, b, d):
    s = QuadSurd.make(a, b, d)
    with mpmath.workprec(256):
        ref = _mp(s)
        if abs(ref) < mpmath.mpf(2) ** -200:
            assert s.sign() == 0
        else:
            assert s.sign() == (1 if ref > 0 else -1)


def test_exact_zero_surd_cases():
    # 3 - sqrt(9) normalises to the rational 0; left unnormalised, the
    # opposite-sign components of 2 - sqrt(4) still give the exact sign 0
    assert QuadSurd.make(3, -1, 9).sign() == 0
    assert QuadSurd(Fraction(2), Fraction(-1), Fraction(4)).sign() == 0
    assert QuadSurd.make(0, 1, 2).sign() == 1


def test_type2_pair_vs_dense_eigensolver_bulk():
    rng = random.Random(20240817)
    for _ in range(10_000):
        m = rng.randint(1, 4)
        p = rng.randint(0, m - 1)
        k = rng.randint(-10, 10)
        mu_sq = Fraction(rng.randint(1, 400), rng.randint(1, 20))
        r = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        eps = Fraction(rng.randint(1, 50), 101)
        plus, minus = type2_eigenvalues(k, p, mu_sq, r, eps, m)
        lam_p = float((-1) ** p) * float(k + eps * Fraction(2 * p - m, 2) - r)
        lam_q = float((-1) ** (p + 1)) * float(k + eps * Fraction(2 * p + 2 - m, 2) - r)
        off = float(mu_sq * eps) ** 0.5
        evals = np.linalg.eigvalsh(np.array([[lam_p, off], [off, lam_q]]))
        assert abs(float(minus) - evals[0]) < 1e-12
        assert abs(float(plus) - evals[1]) < 1e-12


@settings(max_examples=120, deadline=None)
@given(
    st.integers(-8, 8),
    st.integers(0, 3),
    st.fractions(min_value=Fraction(1, 10), max_value=20, max_denominator=10),
    st.fractions(min_value=-10, max_value=10, max_denominator=7),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 2), max_denominator=100),
    st.integers(1, 4),
)
def test_type2_trace_and_determinant_exact(k, p, mu_sq, r, eps, m):
    plus, minus = type2_eigenvalues(k, p, mu_sq, r, eps, m)
    # trace: lam_plus + lam_minus = (-1)^{p+1} eps (the surd parts cancel)
    assert plus.a + minus.a == Fraction((-1) ** (p + 1)) * eps
    assert plus.b + minus.b == 0 and (plus.d == minus.d or plus.b == 0)
    # determinant: product = lam_p·lam_{p+1} - mu^2 eps
    half_m = Fraction(m, 2)
    lam_p = (-1) ** p * (k + eps * (p - half_m) - r)
    lam_q = (-1) ** (p + 1) * (k + eps * (p + 1 - half_m) - r)
    product = plus.a * minus.a + plus.b * minus.b * plus.d
    assert product == lam_p * lam_q - mu_sq * eps


def test_type2_collapses_to_type1_as_mu_vanishes():
    k, p, m = 2, 0, 1
    r, eps = Fraction(1, 3), Fraction(1, 10)
    half_m = Fraction(m, 2)
    lam_p = (-1) ** p * (k + eps * (p - half_m) - r)
    lam_q = (-1) ** (p + 1) * (k + eps * (p + 1 - half_m) - r)
    target = sorted([lam_p, lam_q])
    for mu_sq in (Fraction(1, 10**4), Fraction(1, 10**8)):
        plus, minus = type2_eigenvalues(k, p, mu_sq, r, eps, m)
        got = sorted([float(minus), float(plus)])
        for g, t in zip(got, target):
            assert abs(g - float(t)) < float(mu_sq)


def test_dolbeault_lookup_first_entry_wins_and_missing_is_zero():
    provider = DolbeaultProvider(
        entries=(
            (0, 0, Fraction(2), 3),
            (1, 0, Fraction(2), 4),
            (0, 0, Fraction(2), 7),
            (0, 1, Fraction(5, 2), 1),
        ),
        lower_bound=Fraction(1),
    )
    assert provider.e(0, 0, Fraction(2)) == 3
    assert provider.e(0, 0, 2) == 3  # an equal int key finds the Fraction entry
    assert provider.e(1, 0, Fraction(2)) == 4
    assert provider.e(0, 1, Fraction(5, 2)) == 1
    assert provider.e(0, 1, Fraction(2)) == 0
    assert provider.e(2, 0, Fraction(2)) == 0


def test_alternating_multiplicity_and_invalid_data():
    good = DolbeaultProvider(
        entries=(
            (0, 0, Fraction(2), 3),
            (0, 1, Fraction(2), 5),
            (0, 2, Fraction(2), 2),
        ),
        lower_bound=Fraction(1),
    )
    assert alternating_multiplicity(good, 0, 0, Fraction(2)) == 3
    assert alternating_multiplicity(good, 0, 1, Fraction(2)) == 2
    assert alternating_multiplicity(good, 0, 2, Fraction(2)) == 0
    # d^1 = 1 - 3 < 0: the provider refuses the data when it is built
    with pytest.raises(InvalidDolbeaultData):
        DolbeaultProvider(
            entries=((0, 0, Fraction(2), 3), (0, 1, Fraction(2), 1)),
            lower_bound=Fraction(1),
        )
    # a key with no entry of its own is checked when it is asked for
    lone = DolbeaultProvider(entries=((0, 0, Fraction(2), 3),), lower_bound=Fraction(1))
    with pytest.raises(InvalidDolbeaultData):
        alternating_multiplicity(lone, 0, 1, Fraction(2))


def test_type2_records_drop_zero_alternating_multiplicity():
    provider = DolbeaultProvider(
        entries=((1, 0, Fraction(3), 2), (1, 1, Fraction(3), 2)),
        lower_bound=Fraction(1),
    )
    recs = type2_records(provider, Fraction(0), Fraction(1, 10), 1, (1, 1))
    # p=0: d = 2 -> one pair; p=1: d = 0 -> dropped
    assert len(recs) == 2
    assert {rec.tag for rec in recs} == {"type2plus", "type2minus"}
    assert all(rec.multiplicity == 2 for rec in recs)


def test_type2_records_pair_a_repeated_key_once():
    """A repeated (k, p, μ²) is one key: it gets one pair, with the
    multiplicity of its first entry, in the order of the first entries."""
    provider = DolbeaultProvider(
        entries=(
            (0, 0, Fraction(1), 1),
            (2, 0, Fraction(3), 2),
            (0, 0, Fraction(1), 2),
            (2, 0, Fraction(3), 5),
        ),
        lower_bound=Fraction(1),
    )
    recs = type2_records(provider, Fraction(0), Fraction(1, 10), 1, (0, 2))
    assert [(rec.k, rec.tag, rec.multiplicity) for rec in recs] == [
        (0, "type2plus", 1), (0, "type2minus", 1), (2, "type2plus", 2), (2, "type2minus", 2),
    ]


def test_type2_records_outside_the_k_range_make_no_pair_but_are_validated(monkeypatch):
    entries = ((0, 0, Fraction(3), 1), (5, 0, Fraction(3), 2), (-5, 0, Fraction(3), 1))
    provider = DolbeaultProvider(entries, lower_bound=Fraction(1))
    paired = []
    real_pairs = spectrum_mod._type2_pairs

    def counting_pairs(r, eps, m):
        pair = real_pairs(r, eps, m)

        def counted(k, p, mu_sq):
            paired.append(k)
            return pair(k, p, mu_sq)

        return counted

    monkeypatch.setattr(spectrum_mod, "_type2_pairs", counting_pairs)
    recs = type2_records(provider, Fraction(0), Fraction(1, 10), 1, (0, 4))
    assert [(rec.k, rec.tag) for rec in recs] == [(0, "type2plus"), (0, "type2minus")]
    assert paired == [0]
    # d^1 = e^1 - e^0 = -2 at k = 5, outside any k-range: still refused
    with pytest.raises(InvalidDolbeaultData):
        DolbeaultProvider(entries + ((5, 1, Fraction(3), 0),), lower_bound=Fraction(1))


def test_validate_epsilon_threshold():
    provider = DolbeaultProvider(
        entries=((0, 0, Fraction(1, 100), 1),), lower_bound=Fraction(1, 100)
    )
    assert validate_epsilon(Fraction(1, 100), provider)
    assert not validate_epsilon(Fraction(2), provider)
    assert not validate_epsilon(Fraction(2, 25), provider)  # eps/8 = M exactly


def test_type1_enumeration_and_kernel():
    g = surface_geometry(0, 1)
    hp = SurfaceHodge(0, 1)
    eps = Fraction(1, 10)
    # r sits exactly on the (k=2, p=0) family zero: r = 2 - eps/2
    r = 2 - eps / 2
    recs = type1_eigenvalues(g, hp, r, eps, (-3, 3))
    zero = [rec for rec in recs if rec.value.sign() == 0]
    assert len(zero) == 1 and zero[0].k == 2 and zero[0].p == 0
    assert type1_zeros(g, r, eps) == [(0, 2)]
    assert kernel_dimension(g, hp, r, eps) == 2  # h^{0,2} = 2
    # at eps = 1 every family of CP^3-like data vanishes at r = 1/2 + integer
    assert type1_zeros(projective_like_geometry(3, 1), Fraction(1, 2), Fraction(1)) == [
        (0, 2), (1, 1), (2, 0), (3, -1)
    ]
    assert kernel_dimension(g, hp, Fraction(1, 3), eps) == 0


def test_finite_eta_partial_skips_zeros_and_signs():
    g = surface_geometry(0, 2)
    hp = SurfaceHodge(0, 2)
    recs = type1_eigenvalues(g, hp, Fraction(0), Fraction(1, 10), (-5, 5))
    value = finite_eta_partial(recs, 2.0, 100)
    brute = 0.0
    for rec in recs:
        lam = float(rec.value)
        if lam != 0:
            brute += (1 if lam > 0 else -1) * abs(lam) ** -2.0 * rec.multiplicity
    assert abs(value - brute) < 1e-12
    with pytest.raises(UsageError):
        finite_eta_partial(recs, -1.0, 10)


def _exact_fields(rec: EigRecord) -> bool:
    """The CLI prints a, b, d and μ² with str(), so they must be Fractions."""
    fields = (rec.value.a, rec.value.b, rec.value.d) + (() if rec.mu_sq is None else (rec.mu_sq,))
    return all(type(x) is Fraction for x in fields)


def _printed(records) -> list[tuple[str, ...]]:
    """a, b, d and μ² of each record as the dump writes them."""
    return [tuple(map(str, (rec.value.a, rec.value.b, rec.value.d, rec.mu_sq))) for rec in records]


# r and ε drawn freely, or over denominators that share factors with 2 and
# with each other, so that sums and squares of them cancel common factors
_r_eps = st.tuples(
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.fractions(min_value=Fraction(1, 100), max_value=2, max_denominator=100),
) | st.tuples(st.sampled_from([2, 4, 6, 12, 30]), st.sampled_from([1, 2, 3, 5])).flatmap(
    lambda q: st.tuples(
        st.builds(Fraction, st.integers(-10 * q[0], 10 * q[0]), st.just(q[0] * q[1])),
        st.builds(Fraction, st.integers(1, 2 * q[0]), st.just(q[0] * (3 - q[1] % 2))),
    )
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    _r_eps,
    st.integers(-20, 20),
    st.integers(0, 12),
    st.randoms(use_true_random=False),
)
def test_type1_matches_a_reference_built_through_make(m, r_eps, k_min, width, rng):
    r, eps = r_eps
    g = surface_geometry(0, 1) if m == 1 else projective_like_geometry(m)
    table = {(p, k): rng.choice((0, 0, 1, 3)) for p in range(m + 1) for k in range(k_min, k_min + width + 1)}
    hp = TableHodge(m, table)
    reference = [
        EigRecord(QuadSurd.make((-1) ** p * (k + eps * (p - Fraction(m, 2)) - r)), table[(p, k)], "type1", k, p)
        for k in range(k_min, k_min + width + 1)
        for p in range(m + 1)
        if table[(p, k)]
    ]
    records = type1_eigenvalues(g, hp, r, eps, (k_min, k_min + width))
    assert records == reference
    assert _printed(records) == _printed(reference)
    assert all(_exact_fields(rec) for rec in records)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    _r_eps,
    st.lists(
        st.tuples(
            st.integers(-6, 6),
            st.integers(0, 2),
            # squares among the μ² values make some discriminants perfect squares
            st.sampled_from([Fraction(1, 4), Fraction(5, 2), Fraction(9, 4), Fraction(3), Fraction(49, 10)])
            | st.fractions(min_value=Fraction(1, 4), max_value=30, max_denominator=13),
            st.integers(0, 3),
        ),
        max_size=25,
    ),
    st.integers(-8, 8),
    st.integers(0, 14),
    st.randoms(use_true_random=False),
)
def test_type2_records_match_a_reference_built_through_make(m, r_eps, entries, k_min, width, rng):
    r, eps = r_eps
    # e^p >= e^{p-1} on each (k, μ²) keeps every alternating sum legal
    legal = {}
    for k, p, mu_sq, e in sorted(entries, key=lambda entry: entry[1]):
        legal[(k, p, mu_sq)] = e + sum(v for (k2, _, mu2), v in legal.items() if (k2, mu2) == (k, mu_sq))
    shuffled = [(k, p, mu_sq, e) for (k, p, mu_sq), e in legal.items()]
    rng.shuffle(shuffled)
    provider = DolbeaultProvider(tuple(shuffled), Fraction(1, 4))
    reference = []
    for k, p, mu_sq, _ in provider.entries:
        mult = alternating_multiplicity(provider, k, p, mu_sq)
        if mult == 0 or not k_min <= k <= k_min + width:
            continue
        trace_half = Fraction((-1) ** (p + 1)) * eps / 2
        delta = (2 * k + eps * (2 * p - m + 1) - 2 * r) ** 2 + 4 * mu_sq * eps
        plus = QuadSurd.make(trace_half, Fraction(1, 2), delta)
        minus = QuadSurd.make(trace_half, Fraction(-1, 2), delta)
        assert (plus, minus) == type2_eigenvalues(k, p, mu_sq, r, eps, m)
        reference.append(EigRecord(plus, mult, "type2plus", k, p, mu_sq))
        reference.append(EigRecord(minus, mult, "type2minus", k, p, mu_sq))
    records = type2_records(provider, r, eps, m, (k_min, k_min + width))
    assert records == reference
    assert _printed(records) == _printed(reference)
    assert all(_exact_fields(rec) for rec in records)


def test_type2_pair_with_square_discriminant_is_rational():
    # δ = (2k + ε(2p - m + 1) - 2r)² + 4μ²ε = 0 + 4·(5/2)·(1/10) = 1
    plus, minus = type2_eigenvalues(0, 0, Fraction(5, 2), Fraction(0), Fraction(1, 10), 1)
    assert plus == QuadSurd(Fraction(9, 20), Fraction(0), Fraction(0))
    assert minus == QuadSurd(Fraction(-11, 20), Fraction(0), Fraction(0))
