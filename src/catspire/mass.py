"""Mass functions on vertex subsets, evaluated as exact rationals.

The engine's inequalities are decided without rounding: the interesting
thresholds can be astronomically small (below 2^-500), so every provider
returns fractions.Fraction and nothing in this module touches floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .graphs import UNPACK_MIN_MEMBERS, Graph, VertexSet, bits, neighbours, unpack
from .oracles import DEFAULT_CHROMATIC_LIMIT, exact_chromatic_number


class MassProvider:
    """Common interface: mass(x) in [0, 1], exact, with the set-function axioms.

    Axioms: mass(empty) = 0, mass(V) = 1, monotone under inclusion, and
    subadditive on disjoint sets.  The engine relies on monotonicity to
    find the least set of a nested chain that reaches a bar by search
    (engine.least_reaching) rather than by a walk along the chain, so a
    provider that breaks it can get a wrong block, piece or cover without
    notice; verify_mass_axioms checks it.

    The engine's axiom stage is the provider's axiom_hit.  Its default
    asks mass for every singleton and then every neighbourhood; a provider
    may answer from its own data instead, with exactly the default's
    result.  A subclass that changes mass values must override axiom_hit
    as well, or it inherits an answer about the old values.  ChromaticMass
    keeps the default; at a feasible epsilon every chromatic run ends at
    the axiom stage (README, "Library").
    """

    def mass(self, x: VertexSet) -> Fraction:
        raise NotImplementedError

    def axiom_hit(self, g: Graph, epsilon: Fraction) -> Optional[Tuple[int, int]]:
        """(1, v) for the least v whose singleton has mass at least epsilon;
        failing that, (2, v) for the least v whose neighbourhood does; else
        None.  Every singleton is tried before any neighbourhood."""
        for v in range(g.n):
            if self.mass(VertexSet([v])) >= epsilon:
                return 1, v
        for v in range(g.n):
            if self.mass(neighbours(g, v)) >= epsilon:
                return 2, v
        return None


class CardinalityMass(MassProvider):
    """mass(X) = |X| / n."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("cardinality mass needs at least one vertex")
        self.n = n

    def mass(self, x: VertexSet) -> Fraction:
        return Fraction(len(x), self.n)

    def axiom_hit(self, g: Graph, epsilon: Fraction) -> Optional[Tuple[int, int]]:
        """The default's answer from the degrees: |X|/n >= a/b exactly when
        |X| >= ceil(a*n/b)."""
        bar = -(-epsilon.numerator * self.n // epsilon.denominator)
        if g.n and bar <= 1:  # every singleton weighs 1/n
            return 1, 0
        degrees = list(map(g.degree, range(g.n)))
        if not degrees or max(degrees) < bar:
            return None
        return 2, next(v for v, d in enumerate(degrees) if d >= bar)


class WeightedMass(MassProvider):
    """mass(X) = weight(X) / weight(V) with nonnegative rational weights.

    Weights are stored as integers over a common denominator so subset sums
    stay in integer arithmetic.  From graphs.UNPACK_MIN_MEMBERS members on,
    the unit sum is an int64 dot product over the unpacked mask, which is
    exact while the total of the units is below 2^63; above that total every
    sum adds the members' units in Python ints.
    """

    def __init__(self, weights: Sequence[Fraction]) -> None:
        ws = [Fraction(w) for w in weights]
        if not ws:
            raise ValueError("weighted mass needs at least one vertex")
        if any(w < 0 for w in ws):
            raise ValueError("weights must be nonnegative")
        common = math.lcm(*(w.denominator for w in ws))
        self._units = [int(w * common) for w in ws]
        self._total = sum(self._units)
        if self._total <= 0:
            raise ValueError("total weight must be positive")
        self.n = len(ws)
        self._unit_array = (
            np.array(self._units, dtype=np.int64) if self._total < 1 << 63 else None
        )

    def mass(self, x: VertexSet) -> Fraction:
        mask = x.mask
        if (
            self._unit_array is not None
            and mask.bit_count() >= UNPACK_MIN_MEMBERS
            and mask.bit_length() <= self.n
        ):
            return Fraction(int(unpack(mask, self.n) @ self._unit_array), self._total)
        acc = 0
        units = self._units
        for v in bits(mask):
            acc += units[v]
        return Fraction(acc, self._total)

    def axiom_hit(self, g: Graph, epsilon: Fraction) -> Optional[Tuple[int, int]]:
        """The default's answer from the integer units: a set reaches
        epsilon = a/b exactly when its units reach ceil(a*total/b)."""
        units = self._units
        bar = -(-epsilon.numerator * self._total // epsilon.denominator)
        for v in range(g.n):
            if units[v] >= bar:
                return 1, v
        top = max(units)
        for v in range(g.n):
            # a neighbourhood's units are at most its degree times the top unit
            if g.degree(v) * top >= bar and sum(units[w] for w in bits(g.adj(v))) >= bar:
                return 2, v
        return None


class ChromaticMass(MassProvider):
    """mass(X) = chi(G[X]) / chi(G), exact, memoized per subset.

    Refuses ambient graphs above DEFAULT_CHROMATIC_LIMIT vertices: exact
    coloring is exponential and honest failure beats silent approximation.
    """

    def __init__(self, g: Graph) -> None:
        if g.n < 1:
            raise ValueError("chromatic mass needs at least one vertex")
        if g.n > DEFAULT_CHROMATIC_LIMIT:
            raise ValueError(
                f"chromatic mass limited to {DEFAULT_CHROMATIC_LIMIT} vertices, graph has {g.n}"
            )
        self.graph = g
        self._memo: Dict[int, int] = {}
        self.chi_total = self._chi(g.vertices())

    def _chi(self, x: VertexSet) -> int:
        cached = self._memo.get(x.mask)
        if cached is None:
            cached = exact_chromatic_number(self.graph, within=x)
            self._memo[x.mask] = cached
        return cached

    def mass(self, x: VertexSet) -> Fraction:
        return Fraction(self._chi(x), self.chi_total)


@dataclass(frozen=True)
class MassAxiomReport:
    ok: bool
    checks: int
    failure: Optional[str] = None


def verify_mass_axioms(
    m: MassProvider, g: Graph, budget: int = 2000, seed: int = 0
) -> MassAxiomReport:
    """Check the mass axioms, exhaustively for n <= 12 and sampled above.

    Exhaustive mode walks every nested pair (monotonicity) and every disjoint
    pair (subadditivity); that is every pair for which the axioms say
    anything.  Sampling mode draws `budget` random pairs of each kind.
    Stops at the first violation.
    """
    n = g.n
    full = (1 << n) - 1 if n else 0
    checks = 0

    def fr(mask: int) -> Fraction:
        return m.mass(VertexSet.from_mask(mask))

    if fr(0) != 0:
        return MassAxiomReport(False, 1, "mass of the empty set is not 0")
    if fr(full) != 1:
        return MassAxiomReport(False, 2, "mass of the full vertex set is not 1")
    checks = 2

    if n <= 12:
        value = [Fraction(0)] * (full + 1)
        for mask in range(full + 1):
            value[mask] = fr(mask)
        for y in range(full + 1):
            x = y
            while True:  # all submasks of y, including y and 0
                checks += 1
                if value[x] > value[y]:
                    return MassAxiomReport(
                        False, checks, f"monotonicity fails for {x:#x} inside {y:#x}"
                    )
                if x == 0:
                    break
                x = (x - 1) & y
        for x in range(full + 1):
            comp = full & ~x
            y = comp
            while True:
                checks += 1
                if value[x | y] > value[x] + value[y]:
                    return MassAxiomReport(
                        False, checks, f"subadditivity fails for {x:#x} and {y:#x}"
                    )
                if y == 0:
                    break
                y = (y - 1) & comp
        return MassAxiomReport(True, checks)

    rng = random.Random(seed)
    for _ in range(budget):
        y = rng.getrandbits(n)
        x = rng.getrandbits(n) & y
        checks += 1
        if fr(x) > fr(y):
            return MassAxiomReport(
                False, checks, f"monotonicity fails for {x:#x} inside {y:#x}"
            )
        a = rng.getrandbits(n)
        b = rng.getrandbits(n) & ~a
        checks += 1
        if fr(a | b) > fr(a) + fr(b):
            return MassAxiomReport(
                False, checks, f"subadditivity fails for {a:#x} and {b:#x}"
            )
    return MassAxiomReport(True, checks)
