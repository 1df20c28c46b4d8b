"""Hodge-number providers: vanishing ranges, duality, explicit unknowns."""

import pytest

from etaforge.cohomology import surface_geometry
from etaforge.errors import ProviderConsistencyError, UnknownHodgeData, UsageError
from etaforge.hodge import HrrVanishingHodge, SurfaceHodge, TableHodge


def test_surface_vanishing_ranges():
    hp = SurfaceHodge(genus=2, degree=1)
    # kl > g-1 -> h0 = kl
    assert hp.h(0, 2) == 2
    assert hp.h(0, 5) == 5
    # kl < -(g-1) -> 0
    assert hp.h(0, -2) == 0
    # duality h^{1,k} = h^{0,-k}
    assert hp.h(1, -2) == 2
    assert hp.h(1, 2) == 0


def test_surface_exceptional_range_requires_declaration():
    hp = SurfaceHodge(genus=2, degree=1)
    with pytest.raises(UnknownHodgeData):
        hp.h(0, 0)
    with pytest.raises(UnknownHodgeData):
        hp.h(0, 1)  # kl = 1 = g - 1 is still exceptional
    declared = SurfaceHodge(genus=2, degree=1, h00=1, exceptional_table={(0, 1): 1})
    assert declared.h(0, 0) == 1
    assert declared.h(0, 1) == 1
    assert declared.h(1, -1) == 1


def test_surface_data_must_satisfy_riemann_roch():
    # h^{0,k} - h^{0,-k} = kl: on genus 2, degree 1, h^{0,1} - h^{0,-1} must be 1
    with pytest.raises(UsageError, match="Riemann-Roch"):
        SurfaceHodge(genus=2, degree=1, exceptional_table={(0, 1): 0, (0, -1): 0})
    with pytest.raises(UsageError, match="Riemann-Roch"):
        SurfaceHodge(genus=3, degree=1, h00=1, exceptional_table={(0, -2): 1, (0, 2): 1})
    consistent = SurfaceHodge(genus=2, degree=1, exceptional_table={(0, 1): 1, (0, -1): 0})
    assert consistent.h(0, 1) - consistent.h(1, 1) == 1
    # one side declared only: nothing to compare
    SurfaceHodge(genus=2, degree=1, exceptional_table={(0, 1): 2})


def test_genus_zero_needs_no_declarations():
    hp = SurfaceHodge(genus=0, degree=1)
    assert hp.h(0, 0) == 0
    assert hp.h(1, 0) == 0
    assert hp.h(0, 3) == 3
    assert hp.h(1, -3) == 3


def test_torus_h00():
    hp = SurfaceHodge(genus=1, degree=2, h00=1)
    assert hp.h(0, 0) == 1
    assert hp.h(1, 0) == 1
    assert hp.h(0, 1) == 2


def test_p_range_checked():
    hp = SurfaceHodge(genus=0, degree=1)
    with pytest.raises(UsageError):
        hp.h(2, 0)


def test_hrr_vanishing_provider():
    from fractions import Fraction

    from etaforge.cohomology import Geometry

    # abelian-surface-like: chi(k) = k^2
    g = Geometry(
        m=2,
        top_integral=Fraction(2),
        c1L=Fraction(1),
        c1K=Fraction(0),
        tangent_roots=(Fraction(0), Fraction(0)),
    )
    hp = HrrVanishingHodge(g, k0=1, table={(0, 0): 1, (1, 0): 2, (2, 0): 1})
    for k in (1, 2, 3):
        assert hp.h(0, k) == k * k
        assert hp.h(1, k) == 0
        assert hp.h(2, k) == 0
    # duality h^{p,k} = h^{m-p,-k}
    assert hp.h(2, -1) == hp.h(0, 1)
    assert hp.h(0, -3) == hp.h(2, 3)
    assert hp.h(1, 0) == 2
    with pytest.raises(UnknownHodgeData):
        HrrVanishingHodge(g, k0=2).h(0, 1)


def test_hrr_provider_rejects_inconsistent_chi():
    from fractions import Fraction

    from etaforge.cohomology import Geometry

    # claiming vanishing where chi is negative must raise, not return junk
    negative = Geometry(
        m=1,
        top_integral=Fraction(1),
        c1L=Fraction(-1),
        c1K=Fraction(0),
        tangent_roots=(Fraction(0),),
    )
    with pytest.raises(ProviderConsistencyError):
        HrrVanishingHodge(negative, k0=1).h(0, 1)  # chi(1) = -1
    # a non-integer chi in the claimed range is equally inconsistent
    half = Geometry(
        m=1,
        top_integral=Fraction(1),
        c1L=Fraction(1, 2),
        c1K=Fraction(0),
        tangent_roots=(Fraction(0),),
    )
    with pytest.raises(ProviderConsistencyError):
        HrrVanishingHodge(half, k0=1).h(0, 1)  # chi(1) = 1/2
    # and the sane case still works: chi(k) = kl on a genus-0 surface
    hp = HrrVanishingHodge(surface_geometry(0, 1), k0=1)
    assert hp.h(0, 2) == 2


def test_table_provider_duality_fallback():
    hp = TableHodge(1, {(0, 1): 4})
    assert hp.h(0, 1) == 4
    assert hp.h(1, -1) == 4
    with pytest.raises(UnknownHodgeData):
        hp.h(0, 2)


def test_declared_values_are_checked_when_a_provider_is_built():
    from etaforge.cohomology import projective_like_geometry

    # a negative value, or a p outside 0..m, describes no manifold
    for build in (
        lambda: TableHodge(1, {(0, 0): -3}),
        lambda: TableHodge(2, {(3, 0): 1}),
        lambda: TableHodge(2, {(-1, 0): 1}),
        lambda: HrrVanishingHodge(projective_like_geometry(2), k0=1, table={(0, 0): -1}),
        lambda: HrrVanishingHodge(projective_like_geometry(2), k0=1, table={(3, 0): 1}),
        lambda: SurfaceHodge(genus=1, degree=2, h00=-1),
        lambda: SurfaceHodge(genus=0, degree=1, h00=-1),
        lambda: SurfaceHodge(genus=2, degree=1, exceptional_table={(2, 0): 1}),
        lambda: SurfaceHodge(genus=2, degree=1, exceptional_table={(1, 1): -1}),
    ):
        with pytest.raises(UsageError):
            build()


def test_surface_h00_is_the_declared_value_at_0_0():
    with pytest.raises(UsageError, match="disagree"):
        SurfaceHodge(genus=1, degree=2, h00=1, exceptional_table={(0, 0): 0})
    # an agreeing declaration, or one only in the table, is the same data
    for hp in (
        SurfaceHodge(genus=1, degree=2, h00=1, exceptional_table={(0, 0): 1}),
        SurfaceHodge(genus=1, degree=2, exceptional_table={(0, 0): 1}),
        SurfaceHodge(genus=1, degree=2, exceptional_table={(1, 0): 1}),
    ):
        assert hp.h(0, 0) == hp.h(1, 0) == 1


def test_surface_refuses_a_declared_value_its_vanishing_ranges_contradict():
    for build in (
        lambda: SurfaceHodge(0, 1, h00=5),
        lambda: SurfaceHodge(0, 1, exceptional_table={(0, 5): 99}),
        lambda: SurfaceHodge(0, 1, exceptional_table={(1, -5): 99}),  # h^{1,-5} = h^{0,5} = 5
        lambda: SurfaceHodge(2, 1, h00=1, exceptional_table={(1, 3): 1}),  # h^{1,3} = h^{0,-3} = 0
    ):
        with pytest.raises(UsageError, match="declared in a vanishing range"):
            build()
    # a declared value equal to the one it follows from is the same data
    for hp in (
        SurfaceHodge(0, 1, h00=0),
        SurfaceHodge(0, 1, exceptional_table={(0, 5): 5, (1, 5): 0, (1, -5): 5}),
    ):
        assert (hp.h(0, 0), hp.h(0, 5), hp.h(1, 5), hp.h(1, -5)) == (0, 5, 0, 5)


def test_surface_reads_a_declared_p1_value_through_duality():
    hp = SurfaceHodge(2, 1, h00=1, exceptional_table={(1, 1): 7})
    assert hp.h(1, 1) == 7
    assert hp.h(0, -1) == 7  # h^{0,-1} = h^{1,1}
    with pytest.raises(UnknownHodgeData):
        hp.h(0, 1)
    # Riemann-Roch reads a p = 1 value at -k: h^{1,-1} = h^{0,1} = 0 and
    # h^{0,-1} = 0 differ by 0, not by kl = 1
    with pytest.raises(UsageError, match="Riemann-Roch"):
        SurfaceHodge(genus=2, degree=1, exceptional_table={(1, -1): 0, (0, -1): 0})
    consistent = SurfaceHodge(genus=2, degree=1, exceptional_table={(1, -1): 1, (1, 1): 0})
    assert consistent.h(0, 1) - consistent.h(0, -1) == 1
