"""Local multiplicity factors attached to floor-diagram features.

Every bounded elevator, down end, and merged double point contributes one
factor to a diagram's multiplicity.  The factors live in the universal
ring, or in its multi-affine extension when they depend on a double-point
parameter x_j.  A factor is named by a plain hashable key; writing m for
a weight and c = (m-1)//2:

* ``("square", m)``, a plain bounded elevator of weight m:
      odd m:  <1> + ((m*m - 1)//2) h          even m: (m*m//2) h
* ``("A", m, j)``, double point j on a floor-elevator vertex of weight m:
      odd m:  <1> + c(<2> + <-2> x_j) + (m(m-1)//2) h
      even m: (m*m//2) h
* ``("R", j)``, double point j on a transversal crossing:
      <2> + <2> x_j
* ``("tree", t, m_circ, labels, bounded_edges)``, a twin tree with t
  double points, circuit weight m_circ and (weight, label) bounded twin
  edges (the fields of ``TwinTreeDescriptor``): the product of the
  twin-edge factors times <2**(t-1)> times the sum of x_I over subsets I
  of the tree's labels with |I| congruent to m_circ mod 2.  A bounded
  twin edge of weight m and label i contributes
      odd m:  <1> + ((m*m-1)//2)(<1> + <-1> x_i) + ((m**4 - m*m)//2) h
      even m: (m*m//2)(<1> + <-1> x_i) + ((m**4 - m*m)//2) h

A down end contributes <1> and has no key.  Two tables read the keys:
``factor_value`` dispatches to the closed forms below, and
``residual_factor`` reimplements each factor directly in the residual
quotient (coefficients mod 2, h killed) without going through the exact
ring, giving an independent code path for the mod-2 reports.

The raw constructors of ``group_ring`` re-derive the closed forms symbol
by symbol in the plain group ring of square classes, as an oracle the
identity suite checks them against after one hyperbolic reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
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
    subsets = (c for size in range(parity, desc.t + 1, 2) for c in combinations(desc.labels, size))
    subset_sum = TildeElement(nvars, {frozenset(c): UNIV_ONE for c in subsets})
    return total * scale * subset_sum


# ---------------------------------------------------------------------------
# The two tables over factor keys
# ---------------------------------------------------------------------------


@cache
def factor_value(key: tuple, nvars: int) -> TildeElement:
    """Exact value of the local factor ``key`` (see the module docstring).

    Cached per (key, nvars): at degree 4 with s <= 3 the counts multiply
    1,175 factors with only 46 distinct (key, nvars) pairs."""
    kind = key[0]
    if kind == "square":
        return TildeElement.constant(elevator_square(key[1]), nvars)
    if kind == "A":
        return type_a_factor(key[1], key[2], nvars)
    if kind == "R":
        return type_r_factor(key[1], nvars)
    if kind == "tree":
        return twin_tree_factor(TwinTreeDescriptor(*key[1:]), nvars)
    raise TypeError(f"unknown factor {key!r}")


@cache
def residual_factor(key: tuple, nvars: int) -> ResidualTilde:
    """Residual image of the local factor ``key``, computed directly mod 2.

    Cached per (key, nvars), like ``factor_value``.

    This is deliberately not implemented as residual_reduce(factor_value(key));
    the two paths are compared by the residual test suite.
    """
    kind = key[0]
    one = ResidualTilde.constant(RES_ONE, nvars)
    zero = ResidualTilde.zero(nvars)
    if kind == "square":
        return one if key[1] % 2 else zero
    if kind == "A":
        m, label = key[1:]
        if m % 2 == 0:
            return zero
        if ((m - 1) // 2) % 2 == 0:
            return one
        return one + ResidualTilde(nvars, {frozenset(): RES_EPS, frozenset({label}): RES_EPS})
    if kind == "R":
        return ResidualTilde(nvars, {frozenset(): RES_EPS, frozenset({key[1]}): RES_EPS})
    if kind == "tree":
        desc = TwinTreeDescriptor(*key[1:])
        if any(w % 2 == 0 for w, _ in desc.bounded_edges):
            return zero
        scale = RES_ONE if (desc.t - 1) % 2 == 0 else RES_EPS
        parity = desc.m_circ % 2
        out: dict[frozenset, ResidualElement] = {}
        for size in range(parity, desc.t + 1, 2):
            for subset in combinations(desc.labels, size):
                monomial = frozenset(subset)
                out[monomial] = out.get(monomial, ResidualElement(0, 0)) + scale
        return ResidualTilde(nvars, out)
    raise TypeError(f"unknown factor {key!r}")
