"""Local multiplicity factors attached to floor-diagram features.

Every bounded elevator, down end, and merged double point contributes one
factor to a diagram's multiplicity.  The factors live in the universal
ring, or in its multi-affine extension when they depend on a double-point
parameter x_j.  Writing m for a weight and c = (m-1)//2:

* plain bounded elevator of weight m (the square factor):
      odd m:  <1> + ((m*m - 1)//2) h          even m: (m*m//2) h
* double point on a floor-elevator vertex of weight m (type A):
      odd m:  <1> + c(<2> + <-2> x_j) + (m(m-1)//2) h
      even m: (m*m//2) h
* double point on a transversal crossing (type R):
      <2> + <2> x_j
* bounded twin edge of weight m inside a twin tree:
      odd m:  <1> + ((m*m-1)//2)(<1> + <-1> x_i) + ((m**4 - m*m)//2) h
      even m: (m*m//2)(<1> + <-1> x_i) + ((m**4 - m*m)//2) h
* twin tree with t double points, circuit weight m_circ, and a list of
  bounded twin edges: the product of the twin-edge factors times
  <2**(t-1)> times the sum of x_I over subsets I of the tree's labels
  with |I| congruent to m_circ mod 2.

The raw constructors of ``group_ring`` re-derive these closed forms
symbol by symbol, as an oracle the identity suite checks them against.

``residual_factor`` reimplements each factor directly in the residual
quotient (coefficients mod 2, h killed) without going through the exact
ring, giving an independent code path for the mod-2 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .univ import (
    RES_EPS,
    RES_ONE,
    ResidualElement,
    ResidualTilde,
    TildeElement,
    UNIV_H,
    UNIV_MINUS_ONE,
    UNIV_MINUS_TWO,
    UNIV_ONE,
    UNIV_TWO,
    UnivElement,
)

# ---------------------------------------------------------------------------
# Closed-form factors
# ---------------------------------------------------------------------------


def elevator_square(m: int) -> UnivElement:
    """Multiplicity of an unmerged bounded elevator of weight m."""
    if m < 1:
        raise ValueError("weight must be positive")
    if m % 2:
        return UNIV_ONE + ((m * m - 1) // 2) * UNIV_H
    return (m * m // 2) * UNIV_H


def type_a_factor(m: int, label: int, nvars: int) -> TildeElement:
    """Double point on a floor-elevator vertex; the elevator's own square
    factor is replaced by this product."""
    if m < 1:
        raise ValueError("weight must be positive")
    if m % 2 == 0:
        return TildeElement.constant((m * m // 2) * UNIV_H, nvars)
    c = (m - 1) // 2
    const = UNIV_ONE + c * UNIV_TWO + (m * (m - 1) // 2) * UNIV_H
    return TildeElement(
        nvars,
        {frozenset(): const, frozenset({label}): c * UNIV_MINUS_TWO},
    )


def type_r_factor(label: int, nvars: int) -> TildeElement:
    """Double point on a transversal crossing of two branches."""
    return TildeElement(
        nvars,
        {frozenset(): UNIV_TWO, frozenset({label}): UNIV_TWO},
    )


def twin_edge_factor(m: int, label: int, nvars: int) -> TildeElement:
    """Bounded twin edge of weight m; rank m**4."""
    if m < 1:
        raise ValueError("weight must be positive")
    hterm = ((m**4 - m * m) // 2) * UNIV_H
    if m % 2:
        c = (m * m - 1) // 2
        return TildeElement(
            nvars,
            {
                frozenset(): UNIV_ONE + c * UNIV_ONE + hterm,
                frozenset({label}): c * UNIV_MINUS_ONE,
            },
        )
    c = m * m // 2
    return TildeElement(
        nvars,
        {
            frozenset(): c * UNIV_ONE + hterm,
            frozenset({label}): c * UNIV_MINUS_ONE,
        },
    )


@dataclass(frozen=True)
class TwinTreeDescriptor:
    """Shape data for a twin tree carrying t double points.

    ``labels`` lists the pair labels of the t double points in order;
    ``bounded_edges`` holds (weight, label) entries for the bounded twin
    edges; ``m_circ`` is the circuit weight (root weight plus the number
    of unbounded twin elevators) whose parity selects the subset sum.
    """

    t: int
    m_circ: int
    labels: tuple[int, ...]
    bounded_edges: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("a twin tree carries at least one double point")
        if len(self.labels) != self.t:
            raise ValueError("need exactly one label per double point")
        if len(set(self.labels)) != self.t:
            raise ValueError("labels must be distinct")
        for w, lab in self.bounded_edges:
            if w < 1:
                raise ValueError("twin-edge weight must be positive")
            if lab not in self.labels:
                raise ValueError(f"bounded-edge label {lab} not among the tree labels")
        if len(self.bounded_edges) >= self.t:
            raise ValueError("a twin tree has fewer bounded edges than double points")


def twin_tree_factor(desc: TwinTreeDescriptor, nvars: int) -> TildeElement:
    """Full multiplicity of a twin tree."""
    total = TildeElement.constant(UNIV_ONE, nvars)
    for w, lab in desc.bounded_edges:
        total = total * twin_edge_factor(w, lab, nvars)
    # <2**(t-1)> is <1> for odd t and <2> for even t.
    scale = UNIV_ONE if (desc.t - 1) % 2 == 0 else UNIV_TWO
    parity = desc.m_circ % 2
    subset_sum = TildeElement.zero(nvars)
    for size in range(parity, desc.t + 1, 2):
        for subset in combinations(desc.labels, size):
            subset_sum = subset_sum + TildeElement(nvars, {frozenset(subset): UNIV_ONE})
    return total * scale * subset_sum


# ---------------------------------------------------------------------------
# Factor objects used by the diagram enumerator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElevatorSquare:
    m: int

    def evaluate(self, nvars: int) -> TildeElement:
        return TildeElement.constant(elevator_square(self.m), nvars)


@dataclass(frozen=True)
class TypeA:
    m: int
    label: int

    def evaluate(self, nvars: int) -> TildeElement:
        return type_a_factor(self.m, self.label, nvars)


@dataclass(frozen=True)
class TypeR:
    label: int

    def evaluate(self, nvars: int) -> TildeElement:
        return type_r_factor(self.label, nvars)


@dataclass(frozen=True)
class TwinEdge:
    m: int
    label: int

    def evaluate(self, nvars: int) -> TildeElement:
        return twin_edge_factor(self.m, self.label, nvars)


@dataclass(frozen=True)
class TwinTree:
    desc: TwinTreeDescriptor

    def evaluate(self, nvars: int) -> TildeElement:
        return twin_tree_factor(self.desc, nvars)


@dataclass(frozen=True)
class UnitEnd:
    def evaluate(self, nvars: int) -> TildeElement:
        return TildeElement.constant(UNIV_ONE, nvars)


LocalFactor = ElevatorSquare | TypeA | TypeR | TwinEdge | TwinTree | UnitEnd


def residual_factor(f: LocalFactor, nvars: int) -> ResidualTilde:
    """Residual image of a local factor, computed directly mod 2.

    This is deliberately not implemented as residual_reduce(evaluate(f));
    the two paths are compared by the residual test suite.
    """
    one = ResidualTilde.constant(RES_ONE, nvars)
    zero = ResidualTilde.zero(nvars)
    if isinstance(f, (ElevatorSquare, TwinEdge)):
        return one if f.m % 2 else zero
    if isinstance(f, TypeA):
        if f.m % 2 == 0:
            return zero
        if ((f.m - 1) // 2) % 2 == 0:
            return one
        eps_part = ResidualTilde(
            nvars, {frozenset(): RES_EPS, frozenset({f.label}): RES_EPS}
        )
        return one + eps_part
    if isinstance(f, TypeR):
        return ResidualTilde(
            nvars, {frozenset(): RES_EPS, frozenset({f.label}): RES_EPS}
        )
    if isinstance(f, TwinTree):
        desc = f.desc
        if any(w % 2 == 0 for w, _ in desc.bounded_edges):
            return zero
        scale = RES_ONE if (desc.t - 1) % 2 == 0 else RES_EPS
        parity = desc.m_circ % 2
        out: dict[frozenset, ResidualElement] = {}
        for size in range(parity, desc.t + 1, 2):
            for subset in combinations(desc.labels, size):
                key = frozenset(subset)
                out[key] = out.get(key, ResidualElement(0, 0)) + scale
        return ResidualTilde(nvars, out)
    if isinstance(f, UnitEnd):
        return one
    raise TypeError(f"unknown factor {f!r}")
