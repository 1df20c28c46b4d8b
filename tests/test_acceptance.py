"""Top-level acceptance criteria.

Each test covers one numbered criterion, enforces its runtime budget, and
writes a single pass/fail summary line directly to the terminal (bypassing
capture) so the run log shows one line per criterion.
"""

import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import etaforge.eta as eta_mod
from etaforge.cohomology import (
    index_integral,
    projective_like_geometry,
    surface_geometry,
)
from etaforge.errors import NoConsistentConvention
from etaforge.eta import (
    DEFAULT_CONVENTIONS,
    aps_difference_check,
    asymptotic_eta,
    calibrate,
    exact_eta,
)
from etaforge.flow import flow_in_delta_closed, flow_in_delta_oracle
from etaforge.forms import (
    KahlerModel,
    identity_suite,
    parity_count,
    parity_expected,
    trace_expansion_check,
)
from etaforge.hodge import SurfaceHodge, TableHodge
from etaforge.measure import ModelPoint, laplace_check, near_zero_bound
from etaforge.scalars import bernoulli, fractional_bracket, fractional_part, universal_series
from etaforge.spectrum import type2_eigenvalues


class _Criterion:
    def __init__(self, number, name, limit_s):
        self.number = number
        self.name = name
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit_s else "FAIL"
        sys.__stdout__.write(
            f"[acceptance {self.number}] {self.name}: {status} "
            f"({elapsed:.2f}s / limit {self.limit_s}s)\n"
        )
        sys.__stdout__.flush()
        if exc_type is None and elapsed >= self.limit_s:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.limit_s}s budget"
            )
        return False


def test_criterion_01_surface_eta_at_zero():
    with _Criterion(1, "surface eta at r=0, exact rational", 1.0):
        for genus in (0, 1):
            chi = 2 - 2 * genus
            for l in (1, 2, 3):
                g = surface_geometry(genus, l)
                hp = SurfaceHodge(genus, l, h00=1 if genus == 1 else None)
                h00 = hp.h(0, 0)
                for eps in (Fraction(1, 10), Fraction(1, 100)):
                    expected = (
                        Fraction(-l, 12)
                        - h00
                        + eps**2 * l / 12
                        - Fraction(eps * chi, 12)
                    )
                    assert exact_eta(g, hp, Fraction(0), eps).value == expected


def test_criterion_02_aps_consistency():
    with _Criterion(2, "APS difference relation on half-integer grid", 5.0):
        eps = Fraction(1, 10)
        for l in (1, 2):
            g = surface_geometry(0, l)
            hp = SurfaceHodge(0, l)
            for j in range(20):
                r1 = Fraction(2 * j + 1, 2)
                check = aps_difference_check(g, hp, Fraction(0), r1, eps)
                assert check.passed, (l, r1, check.lhs, check.rhs)


def test_criterion_03_flow_oracle_equivalence():
    with _Criterion(3, "delta-flow closed form vs oracle, 1000 instances", 10.0):
        rng = random.Random(1789)
        boundary = 0
        for trial in range(1000):
            m = rng.randint(1, 3)
            table = {
                (p, k): rng.randint(0, 4) if rng.random() < 0.4 else 0
                for p in range(m + 1)
                for k in range(-12, 13)
            }
            hp = TableHodge(m, table)
            g = surface_geometry(0, 1) if m == 1 else projective_like_geometry(m)
            eps = Fraction(rng.randint(1, 49), 100)
            if trial % 5 == 0:
                ps = [p for p in range(m + 1) if 2 * p != m]
                q = Fraction(2 * rng.choice(ps) - m, 2)
                k = rng.randint(0, 9)
                r = Fraction(k) if trial % 10 == 0 else abs(k + eps * q)
                boundary += 1
            else:
                den = rng.randint(1, 100)
                r = Fraction(rng.randint(0, 10 * den), den)
            closed = flow_in_delta_closed(g, hp, r, eps)
            oracle = flow_in_delta_oracle(g, hp, r, eps)
            assert closed == oracle.net, (m, r, eps, closed, oracle.net)
        assert boundary >= 50


def test_criterion_04_asymptotic_remainder():
    with _Criterion(4, "asymptotic remainder bounded, jumps linear in k", 30.0):
        g = surface_geometry(0, 1)
        hp = SurfaceHodge(0, 1)
        eps = Fraction(1, 10)
        sup_low = Fraction(0)
        sup_high = Fraction(0)
        for num in range(1, 801):
            r = Fraction(num, 4)
            diff = abs(
                exact_eta(g, hp, r, eps).value - asymptotic_eta(g, hp, r, eps)
            )
            if r <= 100:
                sup_low = max(sup_low, diff)
            else:
                sup_high = max(sup_high, diff)
        assert sup_high <= Fraction(11, 10) * sup_low
        # jump at the k-th crossing r* = k - eps/2 has magnitude k·l exactly,
        # so consecutive-jump ratios are 1 + 1/k
        u = Fraction(1, 10**6)
        jumps = []
        for k in range(1, 8):
            r_star = k - eps / 2
            raw = (
                exact_eta(g, hp, r_star + u, eps).value
                - exact_eta(g, hp, r_star - u, eps).value
            )
            smooth = index_integral(g, r_star + u) - index_integral(g, r_star - u)
            jumps.append(abs(raw - smooth))
        for k in range(1, 7):
            assert jumps[k] / jumps[k - 1] == 1 + Fraction(1, k)


def test_criterion_05_tensor_identity_suite():
    with _Criterion(5, "curvature tensor and trace-expansion identities", 30.0):
        for m in (1, 2, 3):
            report = identity_suite(KahlerModel(m))
            assert report.passed, (m, report.checks)
        for big_n in (2, 4):
            for m in (1, 2):
                for delta in (Fraction(0), Fraction(1, 3), Fraction(1)):
                    report = trace_expansion_check(m, big_n, delta)
                    assert report.passed, (big_n, m, delta, report.checks)


def test_criterion_06_parity_count_identities():
    with _Criterion(6, "parity-constrained counts equal binomial forms", 1.0):
        for big_n in (2, 4, 6, 8):
            for k in range(1, big_n // 2 + 2):
                for variant in (1, 2, 3):
                    assert parity_count(big_n, k, variant) == parity_expected(
                        big_n, k, variant
                    ), (big_n, k, variant)


def test_criterion_07_spectral_measure_laplace():
    with _Criterion(7, "measure Laplace transform and near-zero mass", 30.0):
        for pt in (ModelPoint(1, ()), ModelPoint(3, (1.0,)), ModelPoint(5, (1.0, 2.0))):
            for t in (0.5, 1.0, 2.0):
                # choose the truncation radius from the analytic tail bound
                s_max = 20.0 / t
                chk = laplace_check(pt, t, s_max)
                while abs(chk.tail_bound) > 1e-9 * abs(chk.target):
                    s_max *= 1.5
                    chk = laplace_check(pt, t, s_max)
                assert chk.rel_error < 1e-6, (pt.n, t, chk.rel_error)
            ratios = [
                near_zero_bound(pt, eps).ratio
                for eps in (1 / 4, 1 / 16, 1 / 64)
            ]
            assert max(ratios) <= 1.0  # one constant bounds all configurations


def test_criterion_08_type2_exactness():
    with _Criterion(8, "type-2 surds vs dense eigensolver, 10^4 samples", 5.0):
        rng = random.Random(20240817)
        for _ in range(10_000):
            m = rng.randint(1, 4)
            p = rng.randint(0, m - 1)
            k = rng.randint(-10, 10)
            mu_sq = Fraction(rng.randint(1, 400), rng.randint(1, 20))
            r = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            eps = Fraction(rng.randint(1, 50), 101)
            plus, minus = type2_eigenvalues(k, p, mu_sq, r, eps, m)
            half_m = Fraction(m, 2)
            lam_p = (-1) ** p * (k + eps * (p - half_m) - r)
            lam_q = (-1) ** (p + 1) * (k + eps * (p + 1 - half_m) - r)
            # exact trace and determinant identities
            assert plus.a + minus.a == Fraction((-1) ** (p + 1)) * eps
            assert (
                plus.a * minus.a + plus.b * minus.b * plus.d
                == lam_p * lam_q - mu_sq * eps
            )
            off = float(mu_sq * eps) ** 0.5
            evals = np.linalg.eigvalsh(
                np.array([[float(lam_p), off], [off, float(lam_q)]])
            )
            assert abs(float(minus) - evals[0]) < 1e-12
            assert abs(float(plus) - evals[1]) < 1e-12


def _convolve(xs, ys, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if i + j <= order:
                out[i + j] += x * y
    return out


def test_criterion_09_series_sanity():
    with _Criterion(9, "universal series vs independent oracles, order 8", 1.0):
        order = 8
        # Bernoulli numbers by long division of x against 1 - e^{-x}:
        # x/(1 - e^{-x}) = Σ (-1)^n B_n x^n / n!
        den = [Fraction((-1) ** n, math.factorial(n + 1)) for n in range(order + 1)]
        quo = []
        for n in range(order + 1):
            acc = Fraction(1 if n == 0 else 0)
            for i in range(n):
                acc -= quo[i] * den[n - i]
            quo.append(acc / den[0])
        assert [(-1) ** n * b / math.factorial(n) for n, b in enumerate(bernoulli(order))] == quo
        # p_ahat by composing log(1 + u) with the sinh ratio
        body = [
            Fraction(1, 4 ** (n // 2) * math.factorial(n + 1)) if n % 2 == 0 else Fraction(0)
            for n in range(order + 1)
        ]
        u = [Fraction(0)] + body[1:]
        log_out = [Fraction(0)] * (order + 1)
        power = [Fraction(1)] + [Fraction(0)] * order
        for n in range(1, order + 1):
            power = _convolve(power, u, order)
            for i, c in enumerate(power):
                log_out[i] += Fraction((-1) ** (n + 1), n) * c
        p = universal_series("p_ahat", order)
        assert list(p.coeffs) == [
            Fraction(-1, 2) * c for c in log_out
        ]
        # f_integer by long division of (z - tanh z) by (z tanh z)
        big = order + 2
        sinh = [Fraction(1, math.factorial(n)) if n % 2 else Fraction(0) for n in range(big + 1)]
        cosh = [Fraction(1, math.factorial(n)) if n % 2 == 0 else Fraction(0) for n in range(big + 1)]
        tanh = []
        for n in range(big + 1):
            acc = sinh[n]
            for i in range(n):
                acc -= tanh[i] * cosh[n - i]
            tanh.append(acc)
        num = [(Fraction(1) if n == 1 else Fraction(0)) - tanh[n] for n in range(big + 1)]
        dnm = _convolve([Fraction(0), Fraction(1)], tanh, big)
        num, dnm = num[2:], dnm[2:]
        quo = []
        for n in range(order + 1):
            acc = num[n]
            for i in range(n):
                acc -= quo[i] * dnm[n - i]
            quo.append(acc / dnm[0])
        f_int = universal_series("f_integer", order)
        assert list(f_int.coeffs) == [q / 2 for q in quo]
        # the fractional bracket by long division of (z e^{az} - sinh z) by
        # (z sinh z), at order + 2 distinct a: its z^n coefficient has degree
        # n + 1 <= order + 1 in a, so these values pin it as a polynomial in a
        fden = _convolve([Fraction(0), Fraction(1)], sinh, big)[2:]
        for j in range(order + 2):
            a = Fraction(2 * j - order - 1, order + 1)
            fnum = [Fraction(0)] * (big + 1)
            for n in range(1, big + 1):
                fnum[n] = a ** (n - 1) / math.factorial(n - 1)
                if n % 2 == 1:
                    fnum[n] -= Fraction(1, math.factorial(n))
            fnum = fnum[2:]
            fquo = []
            for n in range(order + 1):
                acc = fnum[n]
                for i in range(n):
                    acc -= fquo[i] * fden[n - i]
                fquo.append(acc / fden[0])
            assert list(fractional_bracket(a, order).coeffs) == [q / 2 for q in fquo]
        # periodicity: a(r) = 1 - 2{r} is invariant under r -> r + 1
        for r in (Fraction(2, 7), Fraction(13, 9)):
            assert fractional_bracket(1 - 2 * fractional_part(r), order) == fractional_bracket(
                1 - 2 * fractional_part(r + 1), order
            )


def test_criterion_10_calibration_honesty(monkeypatch):
    with _Criterion(10, "calibration is verified or refuses", 60.0):
        result = calibrate()
        assert result.t1_ok and result.t2_ok
        assert result.conventions == DEFAULT_CONVENTIONS
        assert result.t3_ok  # and the T3 status is reported either way
        # when nothing fits, the failure is loud, never a silent default
        monkeypatch.setattr(eta_mod, "_t2_holds", lambda suite, conv: False)
        with pytest.raises(NoConsistentConvention):
            calibrate()
