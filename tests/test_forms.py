"""Exterior-algebra engine: wedge normalization, curvature identities."""

import itertools
import random
from fractions import Fraction

import pytest

from etaforge.errors import UsageError
from etaforge.forms import (
    EndForm,
    GaussRat,
    I,
    KahlerModel,
    ScalarForm,
    build_tensors,
    constant_curvature_block,
    identity_suite,
    mat_mul,
    parity_count,
    parity_expected,
    trace_expansion_check,
)


def test_gauss_rat_field_ops():
    z = GaussRat(Fraction(1, 2), Fraction(3))
    w = GaussRat(Fraction(2), Fraction(-1))
    assert z + w == GaussRat(Fraction(5, 2), Fraction(2))
    assert z * w == GaussRat(Fraction(4), Fraction(11, 2))
    assert I * I == -1
    assert z - z == 0
    assert 2 * z == GaussRat(Fraction(1), Fraction(6))
    assert I**3 == GaussRat(Fraction(0), Fraction(-1))


def _random_scalar_form(rng, degree, dim):
    values = {}
    for combo in itertools.combinations(range(dim), degree):
        if rng.random() < 0.6:
            values[combo] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return ScalarForm(degree, dim, values)


def test_wedge_matches_full_antisymmetrization():
    """(F∧G)(v) = (1/(p! q!)) Σ_σ sgn(σ) F(...)G(...) over all permutations."""
    rng = random.Random(7)
    import math

    for p, q, dim in ((1, 1, 3), (1, 2, 4), (2, 2, 4)):
        f = _random_scalar_form(rng, p, dim)
        g = _random_scalar_form(rng, q, dim)
        w = f.wedge(g)
        for args in itertools.combinations(range(dim), p + q):
            total = Fraction(0)
            for perm in itertools.permutations(args):
                sign = 1
                for i in range(len(perm)):
                    for j in range(i + 1, len(perm)):
                        if perm[i] > perm[j]:
                            sign = -sign
                total += sign * f(*perm[:p]) * g(*perm[p:])
            total /= math.factorial(p) * math.factorial(q)
            assert w(*args) == total


def test_scalar_wedge_graded_commutative_and_associative():
    rng = random.Random(13)
    f = _random_scalar_form(rng, 1, 4)
    g = _random_scalar_form(rng, 2, 4)
    h = _random_scalar_form(rng, 1, 4)
    assert f.wedge(g) == g.wedge(f)            # (-1)^{1·2} = +1
    fh, hf = f.wedge(h), h.wedge(f)
    assert fh == hf.scale(Fraction(-1))        # (-1)^{1·1} = -1
    assert f.wedge(g.wedge(h)) == f.wedge(g).wedge(h)


def test_evaluation_sign_and_repeats():
    f = ScalarForm(2, 3, {(0, 1): Fraction(5)})
    assert f(0, 1) == 5
    assert f(1, 0) == -5
    assert f(1, 1) == 0


def test_endform_wedge_associative():
    model = KahlerModel(2)
    t = build_tensors(model)
    a, b, c = t["Omega"], t["alpha1"], t["alpha2"]
    assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)


def _dense_mul(a, b):
    """Schoolbook product over every index, zeros included."""
    size = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(size)), Fraction(0)) for j in range(size))
        for i in range(size)
    )


def _random_sparse_matrix(rng, size, entry):
    """Mostly zero, with one zero row and one zero column forced."""
    zero_row, zero_col = rng.randrange(size), rng.randrange(size)
    return tuple(
        tuple(
            entry() if i != zero_row and j != zero_col and rng.random() < 0.3 else Fraction(0)
            for j in range(size)
        )
        for i in range(size)
    )


@pytest.mark.parametrize("ring", ["fraction", "gauss"])
def test_mat_mul_matches_dense_reference(ring):
    rng = random.Random(11)

    def fraction():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def gauss():
        return GaussRat(fraction(), fraction())

    entry = fraction if ring == "fraction" else gauss
    for size in (1, 2, 3, 5, 7):
        for _ in range(20):
            a = _random_sparse_matrix(rng, size, entry)
            b = _random_sparse_matrix(rng, size, entry)
            assert mat_mul(a, b) == _dense_mul(a, b)


def _reference_wedge(f, g):
    """(f∧g)(combo) = Σ over splits of combo of sign · f(left) @ g(right),
    with dense products and the split sign counted from inversions."""
    size = f.size
    out = {}
    for combo in itertools.combinations(range(f.dim), f.degree + g.degree):
        acc = [[Fraction(0)] * size for _ in range(size)]
        for left_pos in itertools.combinations(range(len(combo)), f.degree):
            right_pos = [i for i in range(len(combo)) if i not in left_pos]
            order = list(left_pos) + right_pos
            inversions = sum(
                1 for i, j in itertools.combinations(range(len(order)), 2) if order[i] > order[j]
            )
            left = tuple(combo[i] for i in left_pos)
            right = tuple(combo[i] for i in right_pos)
            prod = _dense_mul(f(*left), g(*right))
            for i in range(size):
                for j in range(size):
                    acc[i][j] += (-1) ** inversions * prod[i][j]
        out[combo] = tuple(tuple(row) for row in acc)
    return EndForm(f.degree + g.degree, f.dim, size, out)


def test_endform_wedge_matches_dense_reference():
    model = KahlerModel(2)
    t = build_tensors(model)
    curv = constant_curvature_block(model, Fraction(3, 2))
    omega_j = t["Omega"].right_mul(t["J"])
    pairs = [
        (t["Omega"], t["Omega"]),
        (t["Omega"], curv),
        (curv, t["alpha1"]),
        (t["alpha1"], t["alpha2"]),
        (t["alpha3"], omega_j),
        (omega_j, omega_j),
        (t["alpha1"], curv),
    ]
    for f, g in pairs:
        assert f.wedge(g) == _reference_wedge(f, g)


def _apply(mat, column_index, dim):
    return [mat[row][column_index] for row in range(dim)]


def test_curvature_first_bianchi_identity():
    for m in (1, 2, 3):
        model = KahlerModel(m, vertical=False)
        curv = constant_curvature_block(model, Fraction(5, 7))
        n = model.dim
        for x, y, z in itertools.product(range(n), repeat=3):
            total = [Fraction(0)] * n
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                mat = curv(a, b)
                for row in range(n):
                    total[row] += mat[row][c]
            assert all(v == 0 for v in total), (m, x, y, z)


def test_curvature_commutes_with_j():
    for m in (1, 2, 3):
        model = KahlerModel(m, vertical=False)
        jm = model.j_matrix()
        curv = constant_curvature_block(model, Fraction(2))
        for mat in curv.values.values():
            assert mat_mul(jm, mat) == mat_mul(mat, jm)


def test_curvature_antisymmetric_in_metric():
    # g(R(X,Y)Z, W) = -g(R(X,Y)W, Z): the value matrices are antisymmetric
    model = KahlerModel(2, vertical=False)
    curv = constant_curvature_block(model, Fraction(1))
    for mat in curv.values.values():
        n = len(mat)
        for i in range(n):
            for j in range(n):
                assert mat[i][j] == -mat[j][i]


def test_identity_suite_all_pass():
    for m in (1, 2, 3):
        for kappa in (Fraction(1), Fraction(-3, 5)):
            report = identity_suite(KahlerModel(m), kappa)
            assert report.passed, (m, kappa, report.checks)


def test_tensors_require_vertical_direction():
    with pytest.raises(UsageError):
        build_tensors(KahlerModel(2, vertical=False))


def test_parity_counts_match_binomials():
    for big_n in (2, 4, 6, 8):
        for k in range(1, big_n // 2 + 2):
            for variant in (1, 2, 3):
                assert parity_count(big_n, k, variant) == parity_expected(
                    big_n, k, variant
                ), (big_n, k, variant)
    with pytest.raises(UsageError):
        parity_count(3, 1, 1)
    with pytest.raises(UsageError):
        parity_count(4, 1, 5)


def test_trace_expansion_identities():
    for big_n in (2, 4):
        for m in (1, 2):
            for delta in (Fraction(0), Fraction(1, 3), Fraction(1)):
                report = trace_expansion_check(m, big_n, delta)
                assert report.passed, (big_n, m, delta, report.checks)
    # and with a different curvature normalization
    assert trace_expansion_check(2, 2, Fraction(1, 2), kappa=Fraction(3, 4)).passed
    with pytest.raises(UsageError):
        trace_expansion_check(1, 3, Fraction(0))


def test_omega_j_trace_powers_full_dimension():
    # top power on the horizontal space: tr[(ΩJ)^{∧m}] = -2^m ω^{∧m}
    model = KahlerModel(3)
    t = build_tensors(model)
    omega_j = t["Omega"].right_mul(t["J"])
    lhs = omega_j.power(3).trace()
    rhs = t["omega"].power(3).scale(Fraction(-8))
    assert lhs == rhs
