"""Spectral-flow counts: worked examples, closed form vs oracle, invariances."""

import random
from fractions import Fraction

import pytest

from etaforge.cohomology import projective_like_geometry, surface_geometry
from etaforge.errors import UsageError
from etaforge.flow import (
    flow_in_delta_closed,
    flow_in_delta_oracle,
    flow_in_s_oracle,
)
from etaforge import hodge
from etaforge.hodge import SurfaceHodge, TableHodge
from etaforge.spectrum import type1_eigenvalues


def _genus0(l=1):
    return surface_geometry(0, l), SurfaceHodge(0, l)


def test_s_flow_worked_examples():
    g, hp = _genus0(1)
    eps = Fraction(1, 10)
    # first crossing sits at 1 - 1/20 > 1/2
    assert flow_in_s_oracle(g, hp, Fraction(0), Fraction(1, 2), eps).net == 0
    # crossings at 19/20 (k=1) and 39/20 (k=2), both p=0, direction -1
    result = flow_in_s_oracle(g, hp, Fraction(0), Fraction(2), eps)
    assert result.net == -3
    assert [(c.k, c.p, c.multiplicity, c.direction) for c in result.crossings] == [
        (1, 0, 1, -1),
        (2, 0, 2, -1),
    ]
    assert result.crossings[0].parameter_value == Fraction(19, 20)
    # empty window
    assert flow_in_s_oracle(g, hp, Fraction(1, 5), Fraction(2, 5), eps).net == 0
    with pytest.raises(UsageError):
        flow_in_s_oracle(g, hp, Fraction(1), Fraction(1), eps)


def test_s_flow_additive_over_windows():
    g, hp = _genus0(3)
    eps = Fraction(1, 10)
    r0, rm, r1 = Fraction(1, 3), Fraction(3, 2), Fraction(17, 4)
    total = flow_in_s_oracle(g, hp, r0, r1, eps).net
    split = (
        flow_in_s_oracle(g, hp, r0, rm, eps).net
        + flow_in_s_oracle(g, hp, rm, r1, eps).net
    )
    assert total == split


def test_s_flow_translation_equivariance():
    g, hp = _genus0(2)
    eps = Fraction(1, 10)
    base = flow_in_s_oracle(g, hp, Fraction(1, 5), Fraction(9, 5), eps)
    shifted = flow_in_s_oracle(g, hp, Fraction(6, 5), Fraction(14, 5), eps)
    assert [(c.k, c.p) for c in shifted.crossings] == [
        (c.k + 1, c.p) for c in base.crossings
    ]
    assert [c.parameter_value - 1 for c in shifted.crossings] == [
        c.parameter_value for c in base.crossings
    ]


def test_delta_flow_worked_examples():
    g, hp = _genus0(1)
    eps = Fraction(1, 10)
    r = Fraction(97, 100)
    assert flow_in_delta_closed(g, hp, r, eps) == -1
    oracle = flow_in_delta_oracle(g, hp, r, eps)
    assert oracle.net == -1
    assert len(oracle.crossings) == 1
    c = oracle.crossings[0]
    assert (c.k, c.p, c.direction) == (1, 0, -1)
    assert c.parameter_value == Fraction(3, 50)
    # r = 1/2: delta* values are half-integers over q = ±1/2, outside (0, eps]
    assert flow_in_delta_oracle(g, hp, Fraction(1, 2), eps).net == 0
    assert flow_in_delta_closed(g, hp, Fraction(1, 2), eps) == 0
    # integer r, small eps: all ranges empty
    for r_int in (Fraction(0), Fraction(1), Fraction(5)):
        assert flow_in_delta_closed(g, hp, r_int, eps) == 0
        assert flow_in_delta_oracle(g, hp, r_int, eps).net == 0


def _random_table(rng, m):
    table = {}
    for k in range(-11, 12):
        for p in range(m + 1):
            if rng.random() < 0.35:
                table[(p, k)] = rng.randint(0, 4)
            else:
                table[(p, k)] = 0
    return TableHodge(m, table)


def test_delta_flow_closed_equals_oracle_randomized():
    rng = random.Random(91)
    boundary_hits = 0
    for trial in range(1000):
        m = rng.randint(1, 3)
        hp = _random_table(rng, m)
        g = (
            surface_geometry(0, 1)
            if m == 1
            else projective_like_geometry(m)
        )
        if trial % 5 == 0:
            # engineered boundary instance: a crossing lands exactly at
            # delta* = 0 (r integer) or delta* = eps
            q = Fraction(rng.choice([p for p in range(m + 1) if 2 * p != m]) * 2 - m, 2)
            k = rng.randint(0, 9)
            if trial % 10 == 0:
                r = Fraction(k)  # delta* = 0 family at (k, p)
                eps = Fraction(rng.randint(1, 49), 100)
            else:
                eps = Fraction(rng.randint(1, 49), 100)
                r = k + eps * q  # delta* = eps exactly
                if r < 0:
                    r = -r
            boundary_hits += 1
        else:
            den = rng.randint(1, 100)
            r = Fraction(rng.randint(0, 10 * den), den)
            eps = Fraction(rng.randint(1, 49), 100)
        closed = flow_in_delta_closed(g, hp, r, eps)
        oracle = flow_in_delta_oracle(g, hp, r, eps)
        assert closed == oracle.net, (m, r, eps, closed, oracle.net)
    assert boundary_hits >= 50


def test_delta_flow_boundary_sweep_exhaustive():
    """Every family boundary case: delta* exactly 0 and exactly eps, for
    each p on both sides of m/2, against the frozen endpoint convention."""
    for m in (1, 2, 3):
        hp = TableHodge(m, {(p, k): 1 for p in range(m + 1) for k in range(-5, 6)})
        g = surface_geometry(0, 1) if m == 1 else projective_like_geometry(m)
        eps = Fraction(1, 7)
        for p in range(m + 1):
            q = Fraction(2 * p - m, 2)
            if q == 0:
                continue
            for k in (0, 1, 3):
                for r in (Fraction(k), k + eps * q):  # delta* = 0 and = eps
                    if r < 0:
                        continue
                    closed = flow_in_delta_closed(g, hp, r, eps)
                    oracle = flow_in_delta_oracle(g, hp, r, eps)
                    assert closed == oracle.net, (m, p, k, r, closed, oracle.net)


def test_flat_families_never_contribute():
    # m = 2: p = 1 sits exactly at m/2 and must not appear in any crossing
    g = projective_like_geometry(2)
    hp = TableHodge(2, {(p, k): 2 for p in range(3) for k in range(-4, 5)})
    for r in (Fraction(1, 2), Fraction(1), Fraction(7, 3)):
        oracle = flow_in_delta_oracle(g, hp, r, Fraction(1, 5))
        assert all(c.p != 1 for c in oracle.crossings)


def test_enumerators_refuse_a_k_range_past_the_bound(monkeypatch):
    """Each loop over k refuses a family range of more than MAX_K_VALUES
    values before it reads a Hodge number, and takes one of exactly that
    many."""
    g, hp = _genus0(1)

    class Unread(hodge.HodgeProvider):
        m = 1

        def h(self, p, k):
            raise AssertionError("a Hodge number was read before the k-range was checked")

    eps, huge = Fraction(1, 10), Fraction(10**12)
    for call in (
        lambda: type1_eigenvalues(g, Unread(), Fraction(0), eps, (0, 10**12)),
        lambda: flow_in_s_oracle(g, Unread(), Fraction(0), huge, eps),
        lambda: flow_in_delta_closed(g, Unread(), Fraction(0), huge),
        lambda: flow_in_delta_oracle(g, Unread(), Fraction(0), huge),
    ):
        with pytest.raises(UsageError, match="wider than 100000 values"):
            call()
    monkeypatch.setattr(hodge, "MAX_K_VALUES", 10)
    # for k in 0..9 the nonzero Hodge numbers sit at p = 0, k = 1..9
    assert [rec.k for rec in type1_eigenvalues(g, hp, Fraction(0), eps, (0, 9))] == list(range(1, 10))
    with pytest.raises(UsageError):
        type1_eigenvalues(g, hp, Fraction(0), eps, (0, 10))
    # family p = 0 crosses at s = k - 1/20: k = 1..10 on (0, 10], k = 1..11 on (0, 11]
    assert flow_in_s_oracle(g, hp, Fraction(0), Fraction(10), eps).net < 0
    with pytest.raises(UsageError):
        flow_in_s_oracle(g, hp, Fraction(0), Fraction(11), eps)
