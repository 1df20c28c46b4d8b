"""Hodge numbers h^{p,k} = dim H^p(X, K⊗L^{⊗k}) with explicit unknown-value
signaling.

Values in the vanishing ranges follow from Riemann-Roch / Kodaira vanishing /
Serre duality; values in the exceptional middle range genuinely depend on
moduli and must be declared by the caller, otherwise UnknownHodgeData is
raised (never a silent default).
"""

from __future__ import annotations

from typing import Mapping

from .cohomology import Geometry, hrr_chi
from .errors import ProviderConsistencyError, UnknownHodgeData, UsageError


class HodgeProvider:
    """Common interface: h(p, k) -> nonnegative integer."""

    m: int

    def h(self, p: int, k: int) -> int:
        raise NotImplementedError

    def _check_p(self, p: int) -> None:
        if not 0 <= p <= self.m:
            raise UsageError(f"p={p} outside 0..{self.m}")

    def _declare(self, table: Mapping[tuple[int, int], int]) -> None:
        """Keep the declared values, once each p is in 0..m and each value >= 0."""
        for (p, k), value in table.items():
            self._check_p(p)
            if value < 0:
                raise UsageError(f"h^({p},{k}) = {value}: Hodge numbers must be nonnegative")
        self._table = table

    def _declared(self, p: int, k: int) -> int:
        """The value declared at (p, k), else at its Serre dual (m - p, -k)."""
        table = self._table
        if (p, k) in table:
            return table[(p, k)]
        if (self.m - p, -k) in table:
            return table[(self.m - p, -k)]
        raise UnknownHodgeData(f"h^({p},{k}) is not declared, nor its Serre dual")


class SurfaceHodge(HodgeProvider):
    """Genus-g surface, degree-l bundle; h00, the declared h^{0,0} (theta
    characteristic), and any other exceptional-range values are caller-declared.
    A value declared in a vanishing range must be the one it follows from."""

    def __init__(
        self,
        genus: int,
        degree: int,
        h00: int | None = None,
        exceptional_table: Mapping[tuple[int, int], int] | None = None,
    ) -> None:
        if degree < 1:
            raise UsageError("surface provider requires degree >= 1")
        self.genus, self.degree, self.m = genus, degree, 1
        declared = dict(exceptional_table or {})
        if h00 is not None and declared.setdefault((0, 0), h00) != h00:
            raise UsageError(
                f"h00 = {h00} and the exceptional h^(0,0) = {declared[(0, 0)]} disagree"
            )
        self._declare(declared)
        # h reads a declared value only in the exceptional range, so a value
        # it does not return contradicts Riemann-Roch and vanishing there;
        # and h^{0,j} - h^{0,-j} = jl wherever both sides are known, with
        # j = k at a declared (0, k) and j = -k at a declared (1, k)
        for (p, k), value in declared.items():
            if self.h(p, k) != value:
                raise UsageError(
                    f"h^({p},{k}) = {value} is declared in a vanishing range, where it is "
                    f"{self.h(p, k)}"
                )
            j = k if p == 0 else -k
            try:
                lhs, rhs = self.h(0, j), self.h(0, -j)
            except UnknownHodgeData:
                continue  # one side depends on moduli: nothing to compare
            if lhs - rhs != j * self.degree:
                raise UsageError(
                    f"h^(0,{j}) = {lhs} and h^(0,{-j}) = {rhs} break Riemann-Roch: "
                    f"their difference must be {j * self.degree}"
                )

    def h(self, p: int, k: int) -> int:
        self._check_p(p)
        kl = (k if p == 0 else -k) * self.degree  # Serre duality h^{1,k} = h^{0,-k}
        gm1 = self.genus - 1
        if kl > gm1:
            return kl
        if kl < -gm1:
            return 0
        return self._declared(p, k)


class HrrVanishingHodge(HodgeProvider):
    """Kodaira-vanishing provider: for k >= k0 only p=0 survives and equals
    the HRR Euler characteristic; k <= -k0 by duality; the strip in between
    comes from a declared table."""

    def __init__(
        self, geometry: Geometry, k0: int, table: Mapping[tuple[int, int], int] | None = None
    ) -> None:
        if k0 < 1:
            raise UsageError("k0 must be a positive integer")
        self.geometry, self.k0, self.m = geometry, k0, geometry.m
        self._declare({} if table is None else table)

    def _chi_at(self, k: int) -> int:
        value = sum(c * k**a for a, c in enumerate(hrr_chi(self.geometry)))
        if value.denominator != 1:
            raise ProviderConsistencyError(f"chi({k}) = {value} is not an integer")
        return int(value)

    def h(self, p: int, k: int) -> int:
        self._check_p(p)
        if k >= self.k0:
            if p > 0:
                return 0
            value = self._chi_at(k)
            if value < 0:
                raise ProviderConsistencyError(
                    f"chi({k}) = {value} < 0 inside the claimed vanishing range; "
                    "k0 is too small"
                )
            return value
        if k <= -self.k0:
            return self.h(self.m - p, -k)
        return self._declared(p, k)


class TableHodge(HodgeProvider):
    """Explicit table with Serre-duality fallback."""

    def __init__(self, m: int, table: Mapping[tuple[int, int], int]) -> None:
        self.m = m
        self._declare(table)

    def h(self, p: int, k: int) -> int:
        self._check_p(p)
        return self._declared(p, k)
