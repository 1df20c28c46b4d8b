"""Exterior-algebra engine: wedge normalization, curvature identities."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from etaforge.errors import UsageError
from etaforge.forms import (
    EndForm,
    GaussRat,
    I,
    KahlerModel,
    build_tensors,
    constant_curvature_block,
    identity_suite,
    mat_add,
    mat_identity,
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


def test_gauss_rational_hashes_like_the_rational_it_equals():
    for value in (0, 1, -3, Fraction(2, 7)):
        z = GaussRat(Fraction(value))
        assert z == value and hash(z) == hash(value)
        assert {value: "x"}.get(z) == "x"
        assert len({z, value}) == 1
    assert {GaussRat(Fraction(1), Fraction(1)): "y"}.get(GaussRat(Fraction(1), Fraction(1))) == "y"
    assert GaussRat(Fraction(1), Fraction(1)) not in {1, Fraction(1)}


def _scalar_form(degree, dim, values):
    """The scalar form with these values, as a form of 1×1 matrices."""
    return EndForm(degree, dim, 1, {key: ((value,),) for key, value in values.items()})


def _random_scalar_form(rng, degree, dim):
    values = {}
    for combo in itertools.combinations(range(dim), degree):
        if rng.random() < 0.6:
            values[combo] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return _scalar_form(degree, dim, values)


def _antisymmetrized(f, g, args):
    """(F∧G)(v) = (1/(p! q!)) Σ_σ sgn(σ) F(v_σ(1..p)) · G(v_σ(p+1..p+q)), over
    every permutation; the values compose with the dense matrix product."""
    p = f.degree
    total = None
    for perm in itertools.permutations(args):
        left, right = f(*perm[:p]), g(*perm[p:])
        term = _dense_mul(left, right)
        inversions = sum(1 for i, j in itertools.combinations(perm, 2) if i > j)
        if inversions % 2:
            term = _negate(term)
        total = term if total is None else _plus(total, term)
    return _times(total, Fraction(1, math.factorial(p) * math.factorial(g.degree)))


def _negate(x):
    return tuple(_negate(y) for y in x) if isinstance(x, tuple) else -x


def _plus(x, y):
    return tuple(_plus(a, b) for a, b in zip(x, y)) if isinstance(x, tuple) else x + y


def _times(x, s):
    return tuple(_times(y, s) for y in x) if isinstance(x, tuple) else x * s


def test_wedge_matches_full_antisymmetrization():
    rng = random.Random(7)
    for p, q, dim in ((1, 1, 3), (1, 2, 4), (2, 2, 4)):
        f = _random_scalar_form(rng, p, dim)
        g = _random_scalar_form(rng, q, dim)
        w = f.wedge(g)
        for args in itertools.combinations(range(dim), p + q):
            assert w(*args) == _antisymmetrized(f, g, args)


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
    f = _scalar_form(2, 3, {(0, 1): Fraction(5)})
    assert f(0, 1) == ((5,),)
    assert f(1, 0) == ((-5,),)
    assert f(1, 1) == ((0,),)


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
        w = f.wedge(g)
        for args in itertools.combinations(range(f.dim), f.degree + g.degree):
            assert w(*args) == _antisymmetrized(f, g, args), args


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
    for m in (1, 2, 3, 4):
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
    lhs = omega_j.powers(3)[3].trace()
    rhs = t["omega"].powers(3)[3].scale(Fraction(-8))
    assert lhs == rhs


def _random_end_form(rng, degree, dim, size, entry):
    values = {}
    for combo in itertools.combinations(range(dim), degree):
        if rng.random() < 0.7:
            values[combo] = _random_sparse_matrix(rng, size, entry)
    return EndForm(degree, dim, size, values)


@pytest.mark.parametrize("ring", ["fraction", "gauss"])
def test_endform_wedge_matches_full_antisymmetrization(ring):
    rng = random.Random(23)

    def fraction():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def gauss():
        return GaussRat(fraction(), fraction())

    entry = fraction if ring == "fraction" else gauss
    for p, q, dim, size in ((1, 1, 3, 2), (1, 2, 4, 3), (2, 1, 4, 2), (2, 2, 5, 2)):
        f = _random_end_form(rng, p, dim, size, entry)
        g = _random_end_form(rng, q, dim, size, entry)
        w = f.wedge(g)
        assert (w.degree, w.dim, w.size) == (p + q, dim, size)
        for args in itertools.combinations(range(dim), p + q):
            assert w(*args) == _antisymmetrized(f, g, args), (p, q, args)


def test_scalar_wedge_with_gauss_values_matches_full_antisymmetrization():
    rng = random.Random(29)

    def gauss_form(degree, dim):
        values = {}
        for combo in itertools.combinations(range(dim), degree):
            if rng.random() < 0.7:
                values[combo] = GaussRat(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4))
                )
        return _scalar_form(degree, dim, values)

    for p, q, dim in ((1, 1, 3), (1, 2, 4), (2, 2, 5)):
        f, g = gauss_form(p, dim), gauss_form(q, dim)
        w = f.wedge(g)
        for args in itertools.combinations(range(dim), p + q):
            assert w(*args) == _antisymmetrized(f, g, args), (p, q, args)


def test_wedge_above_the_dimension_is_zero():
    model = KahlerModel(1)  # dim 3
    t = build_tensors(model)
    big = t["Omega"].wedge(t["alpha1"])  # degree 3 = dim
    top = big.wedge(t["alpha2"])
    assert (top.degree, top.dim) == (4, 3) and top.is_zero()
    omega = t["omega"]
    assert omega.wedge(omega).wedge(omega).is_zero()
    assert omega.powers(3)[3] == EndForm(6, 3, 1, {})


def test_wedge_whose_terms_cancel_is_zero():
    # a 1-form with commuting values: (a∧a)(x, y) = a(x)a(y) - a(y)a(x) = 0
    ident = ((1, 0), (0, 1))
    diag = ((Fraction(2, 3), 0), (0, Fraction(-5)))
    a = EndForm(1, 3, 2, {(0,): ident, (1,): diag, (2,): ident})
    square = a.wedge(a)
    assert square.is_zero() and square.values == {}
    f = _scalar_form(1, 4, {(0,): Fraction(1, 2), (2,): GaussRat(Fraction(1), Fraction(-2))})
    assert f.wedge(f).is_zero()


@pytest.mark.parametrize("size", [1, 2])
def test_add_and_wedge_refuse_mismatched_forms(size):
    """A sum needs one degree, dimension and size; a wedge one dimension and
    size (degrees add).  Scalar forms, of size 1, are held to the same."""
    ident = mat_identity(size)

    def form(degree, dim, size=size):
        key = tuple(range(degree))
        return EndForm(degree, dim, size, {key: mat_identity(size)})

    f = form(2, 3)
    assert (f + form(2, 3)).values == {(0, 1): mat_add(ident, ident)}
    assert f.wedge(form(1, 3)).degree == 3
    for other in (form(1, 3), form(2, 5), form(2, 3, size + 1)):
        with pytest.raises(UsageError):
            f + other
    for other in (form(1, 5), form(1, 3, size + 1)):
        with pytest.raises(UsageError):
            f.wedge(other)
        with pytest.raises(UsageError):
            other.wedge(f)


def _reference_tensors(m, kappa):
    """J, α₁, α₂, α₃, Ω and the curvature of KahlerModel(m) with Fraction
    entries, from their defining formulas on basis vectors."""
    n, v = 2 * m + 1, 2 * m
    zero = Fraction(0)

    def basis(i):
        return [Fraction(int(r == i)) for r in range(n)]

    def jvec(x):  # J e_i = f_i, J f_i = -e_i, J e = 0
        out = [zero] * n
        for i in range(m):
            out[2 * i + 1], out[2 * i] = x[2 * i], -x[2 * i + 1]
        return out

    def dot(x, y):
        return sum((a * b for a, b in zip(x, y)), zero)

    def comb(*terms):
        return [sum((c * x[r] for c, x in terms), zero) for r in range(n)]

    def matrix(image, cols):  # column c = image(c) for c in cols, zero elsewhere
        columns = {c: image(basis(c)) for c in cols}
        return tuple(
            tuple(columns[c][r] if c in columns else zero for c in range(n)) for r in range(n)
        )

    horizontal = range(2 * m)
    e = basis(v)
    jm = matrix(jvec, range(n))
    alpha1 = {(i,): matrix(lambda x, i=i: comb((dot(x, e), jvec(basis(i)))), range(n))
              for i in horizontal}
    alpha2 = {(i,): matrix(lambda x, i=i: comb((dot(basis(i), x), e)), range(n))
              for i in horizontal}
    alpha3 = {(i,): matrix(lambda x, i=i: comb((-dot(x, e), basis(i))), range(n))
              for i in horizontal}
    big_omega, curv = {}, {}
    for i, j in itertools.combinations(horizontal, 2):
        bx, by = basis(i), basis(j)
        big_omega[(i, j)] = matrix(
            lambda z: comb((dot(jvec(bx), z), jvec(by)), (-dot(jvec(by), z), jvec(bx))),
            horizontal,
        )
        curv[(i, j)] = matrix(
            lambda z: comb(
                (kappa / 4 * dot(by, z), bx), (-kappa / 4 * dot(bx, z), by),
                (kappa / 4 * dot(jvec(by), z), jvec(bx)), (-kappa / 4 * dot(jvec(bx), z), jvec(by)),
                (-kappa / 2 * dot(jvec(bx), by), jvec(z)),
            ),
            horizontal,
        )
    return jm, alpha1, alpha2, alpha3, big_omega, curv


def _entries(mat):
    return [x for row in mat for x in row]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_integer_tensors_match_fraction_references(m):
    kappa = Fraction(-3, 5)
    jm, alpha1, alpha2, alpha3, big_omega, curv = _reference_tensors(m, kappa)
    t = build_tensors(KahlerModel(m))
    assert t["J"] == jm
    for name, ref in (("alpha1", alpha1), ("alpha2", alpha2), ("alpha3", alpha3),
                      ("Omega", big_omega)):
        assert t[name] == EndForm(t[name].degree, 2 * m + 1, 2 * m + 1, ref), name
        # the tensors of the model hold Python ints, not Fractions
        assert all(type(x) is int for mat in t[name].values.values() for x in _entries(mat)), name
    assert all(type(x) is int for x in _entries(t["J"]))
    assert t["omega"].values == {(2 * i, 2 * i + 1): ((1,),) for i in range(m)}
    block = constant_curvature_block(KahlerModel(m), kappa)
    assert block == EndForm(2, 2 * m + 1, 2 * m + 1, curv)
    # the bracket stays an integer: entries are κ/4 times an integer, or the int 0
    for x in (x for mat in block.values.values() for x in _entries(mat)):
        assert (x / (kappa / 4)).denominator == 1 if x else type(x) is int


def _counted(method, key: str, counts: dict):
    def counted(self, *args):
        counts[key] += 1
        return method(self, *args)

    return counted


@pytest.fixture
def form_calls(monkeypatch):
    """Calls of the form operations that the suites build powers with."""
    counts = {}
    for name in ("wedge", "right_mul"):
        counts[name] = 0
        monkeypatch.setattr(EndForm, name, _counted(getattr(EndForm, name), name, counts))
    return counts


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n_power", [2, 4, 6])
def test_trace_expansion_builds_each_power_once(form_calls, m, n_power):
    """Powers N - 2, N - 1 and N of A, of S and of ω come from N wedges
    each, one more per power, plus the one wedge of ΩJ against A^(N-2)."""
    report = trace_expansion_check(m, n_power, Fraction(1, 3))
    assert report.passed
    assert form_calls == {"wedge": 3 * n_power + 1, "right_mul": 1}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_identity_suite_builds_each_power_once(form_calls, m):
    """Five wedges for the nilpotency and α₁∧α₂ checks, then (ΩJ)^k and ω^k
    for k = 1..m each one wedge from the power before; ΩJ is built once."""
    report = identity_suite(KahlerModel(m))
    assert report.passed
    assert form_calls == {"wedge": 5 + 2 * m, "right_mul": 1}
