"""Endomorphism-valued alternating forms on a model Kähler tangent space.

Exact engine for small dimensions: forms store their nonzero values on
sorted basis tuples, a wedge product runs over the pairs of stored values
with disjoint indices and composes matrices by skipping zero entries (almost
all entries of these tensors are zero), and all identities are checked by
exhaustive basis-tuple evaluation.  Scalars are integers where the tensors
are, rationals once κ or δ enters, and Gaussian rationals in the
complexified traces.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence, Union

from .errors import UsageError


class GaussRat:
    """Gaussian rational re + im·i with exact components.  A number, not a
    tuple: no sequence operation can reach its arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction = Fraction(0)) -> None:
        self.re, self.im = re, im

    def __repr__(self) -> str:
        return f"GaussRat({self.re!r}, {self.im!r})"

    @staticmethod
    def coerce(x: "GaussLike") -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        return GaussRat(Fraction(x))

    def __add__(self, other: "GaussLike") -> "GaussRat":
        other = GaussRat.coerce(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other: "GaussLike") -> "GaussRat":
        return self + (-GaussRat.coerce(other))

    def __rsub__(self, other: "GaussLike") -> "GaussRat":
        return GaussRat.coerce(other) + (-self)

    def __mul__(self, other: "GaussLike") -> "GaussRat":
        other = GaussRat.coerce(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GaussRat":
        out = GaussRat(Fraction(1))
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussRat(Fraction(other))
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # a value equal to a rational hashes like it
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)


GaussLike = Union[int, Fraction, GaussRat]
I = GaussRat(Fraction(0), Fraction(1))

Matrix = tuple[tuple, ...]  # rows of ring elements; column j = image of basis j


def mat_zero(size: int) -> Matrix:
    return ((0,) * size,) * size


def mat_identity(size: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, s) -> Matrix:
    return tuple(tuple(x * s for x in row) for row in a)


def _sparse_rows(b: Matrix) -> list[list[tuple[int, object]]]:
    """The (column, entry) pairs of each row of b whose entry is nonzero."""
    return [[(j, y) for j, y in enumerate(row) if y] for row in b]


def _mul_into(acc: list[list], a_rows, b_rows, sign: int = 1) -> None:
    """acc += sign·(a @ b), visiting only the nonzero entries of a against
    b's nonzero rows (a and b given as _sparse_rows)."""
    for acc_row, row in zip(acc, a_rows):
        for k, x in row:
            if not b_rows[k]:
                continue
            if sign < 0:
                x = -x
            for j, y in b_rows[k]:
                acc_row[j] = acc_row[j] + x * y


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    size = len(a)
    acc = [[0] * size for _ in range(size)]
    _mul_into(acc, _sparse_rows(a), _sparse_rows(b))
    return tuple(tuple(row) for row in acc)


def mat_trace(a: Matrix):
    return sum(a[i][i] for i in range(len(a)))


def _is_zero_matrix(a: Matrix) -> bool:
    return not any(any(row) for row in a)


def _sort_args(args: Sequence[int]) -> tuple[int, tuple[int, ...]] | None:
    """Sort arguments, returning permutation sign, or None on repeats."""
    if len(set(args)) != len(args):
        return None
    sign = 1
    # count inversions
    for i, a in enumerate(args):
        for b in args[i + 1:]:
            if a > b:
                sign = -sign
    return sign, tuple(sorted(args))


class ScalarForm:
    """Alternating form with scalar values, stored on sorted basis tuples."""

    __slots__ = ("degree", "dim", "values")

    def __init__(self, degree: int, dim: int, values: Mapping[tuple[int, ...], object]):
        self.degree = degree
        self.dim = dim
        self.values = {k: v for k, v in values.items() if v}

    def __call__(self, *args: int):
        sorted_ = _sort_args(args)
        if sorted_ is None:
            return 0
        sign, key = sorted_
        return sign * self.values.get(key, 0)

    def __add__(self, other: "ScalarForm") -> "ScalarForm":
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out.get(k, 0) + v
        return ScalarForm(self.degree, self.dim, out)

    def scale(self, s) -> "ScalarForm":
        return ScalarForm(self.degree, self.dim, {k: v * s for k, v in self.values.items()})

    def __neg__(self) -> "ScalarForm":
        return self.scale(-1)

    def wedge(self, other: "ScalarForm") -> "ScalarForm":
        """Sum over the pairs of stored values whose indices are disjoint."""
        out: dict[tuple[int, ...], object] = {}
        for left, a in self.values.items():
            for right, b in other.values.items():
                sorted_ = _sort_args(left + right)
                if sorted_ is not None:
                    sign, key = sorted_
                    out[key] = out.get(key, 0) + sign * a * b
        return ScalarForm(self.degree + other.degree, self.dim, out)

    def powers(self, n: int) -> list["ScalarForm"]:
        """[self^0, self^1, ..., self^n], each one wedge from the one before."""
        out = [ScalarForm(0, self.dim, {(): 1})]
        for _ in range(n):
            out.append(out[-1].wedge(self))
        return out

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarForm):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.dim == other.dim
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"ScalarForm(deg={self.degree}, dim={self.dim}, {self.values})"


class EndForm:
    """Alternating form with endomorphism (matrix) values."""

    __slots__ = ("degree", "dim", "size", "values")

    def __init__(
        self,
        degree: int,
        dim: int,
        size: int,
        values: Mapping[tuple[int, ...], Matrix],
    ):
        self.degree = degree
        self.dim = dim
        self.size = size
        self.values = {k: v for k, v in values.items() if not _is_zero_matrix(v)}

    def __call__(self, *args: int) -> Matrix:
        sorted_ = _sort_args(args)
        if sorted_ is None:
            return mat_zero(self.size)
        sign, key = sorted_
        value = self.values.get(key)
        if value is None:
            return mat_zero(self.size)
        return value if sign == 1 else mat_scale(value, -1)

    def __add__(self, other: "EndForm") -> "EndForm":
        if (self.degree, self.dim, self.size) != (other.degree, other.dim, other.size):
            raise UsageError("incompatible forms")
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = mat_add(out[k], v) if k in out else v
        return EndForm(self.degree, self.dim, self.size, out)

    def scale(self, s) -> "EndForm":
        return EndForm(
            self.degree, self.dim, self.size,
            {k: mat_scale(v, s) for k, v in self.values.items()},
        )

    def left_mul(self, mat: Matrix) -> "EndForm":
        return EndForm(
            self.degree, self.dim, self.size,
            {k: mat_mul(mat, v) for k, v in self.values.items()},
        )

    def right_mul(self, mat: Matrix) -> "EndForm":
        return EndForm(
            self.degree, self.dim, self.size,
            {k: mat_mul(v, mat) for k, v in self.values.items()},
        )

    def wedge(self, other: "EndForm") -> "EndForm":
        """Sum over the pairs of stored values whose indices are disjoint,
        one accumulator matrix per sorted key."""
        if self.dim != other.dim or self.size != other.size:
            raise UsageError("incompatible forms")
        size = self.size
        other_rows = [(key, _sparse_rows(b)) for key, b in other.values.items()]
        acc: dict[tuple[int, ...], list[list]] = {}
        for left, a in self.values.items():
            a_rows = _sparse_rows(a)
            for right, b_rows in other_rows:
                sorted_ = _sort_args(left + right)
                if sorted_ is None:
                    continue
                sign, key = sorted_
                if key not in acc:
                    acc[key] = [[0] * size for _ in range(size)]
                _mul_into(acc[key], a_rows, b_rows, sign)
        out = {key: tuple(map(tuple, rows)) for key, rows in acc.items()}
        return EndForm(self.degree + other.degree, self.dim, size, out)

    def powers(self, n: int) -> list["EndForm"]:
        """[self^0, self^1, ..., self^n], each one wedge from the one before."""
        out = [EndForm(0, self.dim, self.size, {(): mat_identity(self.size)})]
        for _ in range(n):
            out.append(out[-1].wedge(self))
        return out

    def trace(self) -> ScalarForm:
        return ScalarForm(
            self.degree, self.dim,
            {k: mat_trace(v) for k, v in self.values.items()},
        )

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EndForm):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.dim == other.dim
            and self.size == other.size
            and self.values == other.values
        )


class KahlerModel(NamedTuple):
    """Model tangent space: horizontal pairs (e_i, f_i) with the standard
    complex rotation, optionally one vertical direction as the last basis
    vector.  Metric is the identity; ω(X, Y) = g(JX, Y)."""

    m: int
    vertical: bool = True

    @property
    def dim(self) -> int:
        return 2 * self.m + (1 if self.vertical else 0)

    @property
    def vertical_index(self) -> int | None:
        return 2 * self.m if self.vertical else None

    def j_matrix(self) -> Matrix:
        n = self.dim
        rows = [[0] * n for _ in range(n)]
        for i in range(self.m):
            rows[2 * i + 1][2 * i] = 1   # J e_i = f_i
            rows[2 * i][2 * i + 1] = -1  # J f_i = -e_i
        return tuple(tuple(r) for r in rows)

    def omega(self) -> ScalarForm:
        return ScalarForm(2, self.dim, {(2 * i, 2 * i + 1): 1 for i in range(self.m)})


def _big_omega(model: KahlerModel, jm: Matrix) -> EndForm:
    """Ω(b_i, b_j) x = ω(b_i, x) J b_j - ω(b_j, x) J b_i on horizontal b_i, b_j, x,
    with ω(b_i, b_j) = g(J b_i, b_j) = jm[j][i]."""
    n = model.dim
    values: dict[tuple[int, ...], Matrix] = {}
    for i, j in itertools.combinations(range(2 * model.m), 2):
        rows = [[0] * n for _ in range(n)]
        for col in range(2 * model.m):
            for row in range(n):
                rows[row][col] = jm[col][i] * jm[row][j] - jm[col][j] * jm[row][i]
        values[(i, j)] = tuple(tuple(r) for r in rows)
    return EndForm(2, n, n, values)


def build_tensors(model: KahlerModel) -> dict:
    """The Kähler tensors: ω, J, and the three connection tensors coupling
    horizontal and vertical directions."""
    if not model.vertical:
        raise UsageError("these tensors need the vertical direction")
    n = model.dim
    v = model.vertical_index
    jm = model.j_matrix()

    # alpha1(b_i): e -> J b_i; alpha2(b_i): x -> g(b_i, x) e; alpha3(b_i): e -> -b_i
    a1_vals, a2_vals, a3_vals = {}, {}, {}
    for i in range(2 * model.m):
        rows1 = [[0] * n for _ in range(n)]
        rows2 = [[0] * n for _ in range(n)]
        rows3 = [[0] * n for _ in range(n)]
        for row in range(n):
            rows1[row][v] = jm[row][i]
        rows2[v][i] = 1
        rows3[i][v] = -1
        for vals, rows in ((a1_vals, rows1), (a2_vals, rows2), (a3_vals, rows3)):
            vals[(i,)] = tuple(tuple(r) for r in rows)
    alpha1 = EndForm(1, n, n, a1_vals)
    alpha2 = EndForm(1, n, n, a2_vals)
    alpha3 = EndForm(1, n, n, a3_vals)

    return {
        "omega": model.omega(),
        "J": jm,
        "Omega": _big_omega(model, jm),
        "alpha1": alpha1,
        "alpha2": alpha2,
        "alpha3": alpha3,
    }


def constant_curvature_block(model: KahlerModel, kappa: Fraction) -> EndForm:
    """Curvature of constant holomorphic sectional curvature κ on the
    horizontal space; satisfies the first Bianchi identity and commutes
    with J (both verified in tests, not assumed)."""
    n = model.dim
    jm = model.j_matrix()
    quarter_kappa = Fraction(kappa) / 4
    values: dict[tuple[int, ...], Matrix] = {}
    for i, j in itertools.combinations(range(2 * model.m), 2):
        rows = [[0] * n for _ in range(n)]
        for z in range(2 * model.m):
            # (κ/4)[g(Y,Z)X - g(X,Z)Y + g(JY,Z)JX - g(JX,Z)JY - 2 g(JX,Y)JZ]
            for row in range(n):
                val = (
                    (j == z) * (row == i) - (i == z) * (row == j)
                    + jm[z][j] * jm[row][i] - jm[z][i] * jm[row][j]
                    - 2 * jm[j][i] * jm[row][z]
                )
                if val:
                    rows[row][z] = quarter_kappa * val
        values[(i, j)] = tuple(tuple(r) for r in rows)
    return EndForm(2, n, n, values)


class IdentityReport(NamedTuple):
    """Named pass/fail checks of one identity or trace-expansion suite."""

    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def identity_suite(model: KahlerModel, kappa: Fraction = Fraction(1)) -> IdentityReport:
    """The tensor identities: nilpotency of Ω against itself and the
    curvature, the curvature annihilating α₁, the trace powers of ΩJ, and
    the α₁∧α₂ relation."""
    t = build_tensors(model)
    big_omega, jm, omega = t["Omega"], t["J"], t["omega"]
    curv = constant_curvature_block(model, kappa)
    omega_j = big_omega.right_mul(jm)
    checks = [
        ("omega_wedge_omega", big_omega.wedge(big_omega).is_zero()),
        ("omega_wedge_R", big_omega.wedge(curv).is_zero()),
        ("R_wedge_omega", curv.wedge(big_omega).is_zero()),
        ("R_wedge_alpha1", curv.wedge(t["alpha1"]).is_zero()),
        ("alpha1_wedge_alpha2", t["alpha1"].wedge(t["alpha2"]) == omega_j.scale(-1)),
    ]
    omega_j_powers = omega_j.powers(model.m)
    omega_powers = omega.powers(model.m)
    for k in range(1, model.m + 1):
        lhs = omega_j_powers[k].trace()
        rhs = omega_powers[k].scale(-(2**k))
        checks.append((f"trace_omega_j_power_{k}", lhs == rhs))
    return IdentityReport(tuple(checks))


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def parity_count(N: int, k: int, variant: int) -> int:
    """Brute-force count of exponent tuples a ∈ ℕ₀^{k+1} under the variant's
    total-degree and parity constraints."""
    if N % 2 != 0 or N < 2 or k < 1:
        raise UsageError("N must be even >= 2 and k >= 1")
    if variant == 1:
        total = N - k
        cond = lambda a: (a[0] + a[-1]) % 2 == 1 and all(x % 2 == 1 for x in a[1:-1])
    elif variant == 2:
        total = N - 1 - k
        cond = lambda a: (a[0] + a[-1]) % 2 == 0 and all(x % 2 == 1 for x in a[1:-1])
    elif variant == 3:
        total = N - 2 - k
        cond = lambda a: a[0] % 2 == 0 and all(x % 2 == 1 for x in a[1:])
    else:
        raise UsageError("variant must be 1, 2 or 3")
    if total < 0:
        return 0
    count = 0
    for head in itertools.product(range(total + 1), repeat=k):
        rest = total - sum(head)
        if rest < 0:
            continue
        a = head + (rest,)
        if cond(a):
            count += 1
    return count


def parity_expected(N: int, k: int, variant: int) -> int:
    half = N // 2
    if variant == 1:
        return 2 * _binom(half, k)
    if variant == 2:
        return _binom(half, k) + _binom(half - 1, k)
    if variant == 3:
        return _binom(half - 1, k)
    raise UsageError("variant must be 1, 2 or 3")


def _complexify_endform(model: KahlerModel, form: EndForm) -> EndForm:
    """Restrict the complexified, J-commuting endomorphism values to the
    holomorphic eigenspace of J: in the basis v_a = e_a - i f_a the matrix
    entry is A + iB with A the e->e and B the e->f block."""
    m = model.m
    values: dict[tuple[int, ...], Matrix] = {}
    for key, mat in form.values.items():
        rows = [
            [
                GaussRat(mat[2 * a][2 * b], mat[2 * a + 1][2 * b])
                for b in range(m)
            ]
            for a in range(m)
        ]
        values[key] = tuple(tuple(r) for r in rows)
    return EndForm(form.degree, form.dim, m, values)


def trace_expansion_check(
    m: int, N: int, delta: Fraction, kappa: Fraction = Fraction(1)
) -> IdentityReport:
    """The three trace identities for A = R + 2δ(ω⊗J) + δΩ against their
    complexified right-hand sides, exactly over Gaussian rationals.

    Identity 2's constant term is 2ε_N·δ·ω (the δ belongs there: the term
    descends from (2iδω)^{N-1} at N = 2).
    """
    if N % 2 != 0 or N < 2:
        raise UsageError("N must be even and >= 2")
    delta = Fraction(delta)
    model = KahlerModel(m, vertical=False)
    n = model.dim
    jm = model.j_matrix()
    omega = model.omega()
    curv = constant_curvature_block(model, kappa)
    big_omega = _big_omega(model, jm)

    omega_j = EndForm(
        2, n, n, {k: mat_scale(jm, v) for k, v in omega.values.items()}
    )
    total = curv + omega_j.scale(2 * delta) + big_omega.scale(delta)

    # complexified side: S = R^{1,0} + 2iδ·ω·Id
    r10 = _complexify_endform(model, curv)
    two_i_delta = I * (2 * delta)
    id_m = mat_identity(m)
    omega_id = EndForm(
        2, n, m,
        {k: mat_scale(id_m, v * two_i_delta) for k, v in omega.values.items()},
    )
    s_form = r10 + omega_id

    eps_n = 1 if N == 2 else 0
    checks = []
    # the identities need powers N - 2, N - 1 and N of the same forms
    total_pow, s_pow, omega_pow = total.powers(N), s_form.powers(N), omega.powers(N)

    lhs1 = total_pow[N].trace()
    rhs1 = s_pow[N].trace().scale(2)
    rhs1 = rhs1 + omega_pow[N].scale(two_i_delta**N * 2)
    checks.append(("full_trace_power", lhs1 == rhs1))

    lhs2 = total_pow[N - 1].left_mul(jm).trace()
    rhs2 = s_pow[N - 1].trace().scale(I * 2)
    rhs2 = rhs2 + omega_pow[N - 1].scale(two_i_delta ** (N - 1) * I * 2)
    rhs2 = rhs2 + omega.scale(2 * eps_n * delta)
    checks.append(("j_trace_power", lhs2 == rhs2))

    lhs3 = big_omega.right_mul(jm).wedge(total_pow[N - 2]).trace()
    if eps_n:
        ok3 = lhs3 == omega.scale(Fraction(-2))
    else:
        ok3 = lhs3.is_zero()
    checks.append(("omega_j_trace_power", ok3))

    return IdentityReport(tuple(checks))
