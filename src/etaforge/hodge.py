"""Hodge numbers h^{p,k} = dim H^p(X, K⊗L^{⊗k}) with explicit unknown-value
signaling.

Values in the vanishing ranges follow from Riemann-Roch / Kodaira vanishing /
Serre duality; values in the exceptional middle range genuinely depend on
moduli and must be declared by the caller, otherwise UnknownHodgeData is
raised (never a silent default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class SurfaceHodge(HodgeProvider):
    """Genus-g surface, degree-l bundle; h^{0,0} (theta characteristic) and
    any other exceptional-range values are caller-declared."""

    genus: int
    degree: int
    h00: int | None = None
    exceptional_table: Mapping[tuple[int, int], int] = field(default_factory=dict)
    m: int = field(default=1, init=False)

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise UsageError("surface provider requires degree >= 1")
        if any(v < 0 for v in self.exceptional_table.values()):
            raise UsageError("Hodge numbers must be nonnegative")
        # Riemann-Roch: h^{0,k} - h^{0,-k} = kl wherever both sides are known
        for p, k in self.exceptional_table:
            lhs, rhs = self._known_h0(k), self._known_h0(-k)
            if p == 0 and lhs is not None and rhs is not None and lhs - rhs != k * self.degree:
                raise UsageError(
                    f"h^(0,{k}) = {lhs} and h^(0,{-k}) = {rhs} break Riemann-Roch: "
                    f"their difference must be {k * self.degree}"
                )

    def _h0(self, k: int) -> int:
        kl = k * self.degree
        gm1 = self.genus - 1
        if kl > gm1:
            return kl
        if kl < -gm1:
            return 0
        if k == 0 and self.h00 is not None:
            return self.h00
        if (0, k) in self.exceptional_table:
            return self.exceptional_table[(0, k)]
        raise UnknownHodgeData(
            f"h^(0,{k}) on genus {self.genus} depends on moduli; declare it"
        )

    def _known_h0(self, k: int) -> int | None:
        """h^{0,k} from vanishing or a declaration, None where it depends on moduli."""
        try:
            return self._h0(k)
        except UnknownHodgeData:
            return None

    def h(self, p: int, k: int) -> int:
        self._check_p(p)
        if p == 0:
            return self._h0(k)
        return self._h0(-k)  # Serre duality h^{1,k} = h^{0,-k}


@dataclass
class HrrVanishingHodge(HodgeProvider):
    """Kodaira-vanishing provider: for k >= k0 only p=0 survives and equals
    the HRR Euler characteristic; k <= -k0 by duality; the strip in between
    comes from a declared table."""

    geometry: Geometry
    k0: int
    table: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.m = self.geometry.m
        if self.k0 < 1:
            raise UsageError("k0 must be a positive integer")

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
        if (p, k) in self.table:
            return self.table[(p, k)]
        if (self.m - p, -k) in self.table:
            return self.table[(self.m - p, -k)]
        raise UnknownHodgeData(f"h^({p},{k}) not declared in the strip |k| < {self.k0}")


@dataclass
class TableHodge(HodgeProvider):
    """Explicit table with Serre-duality fallback."""

    m: int
    table: Mapping[tuple[int, int], int]

    def h(self, p: int, k: int) -> int:
        self._check_p(p)
        if (p, k) in self.table:
            return self.table[(p, k)]
        if (self.m - p, -k) in self.table:
            return self.table[(self.m - p, -k)]
        raise UnknownHodgeData(f"h^({p},{k}) not in table")
