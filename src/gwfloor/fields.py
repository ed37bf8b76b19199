"""Field models: homomorphic images of the universal ring.

Three concrete targets are supported.

* ``RealField``: elements are (rank, signature) pairs with componentwise
  arithmetic.  A rank-one class maps to (1, sign of the unit), h to (2, 0).
* ``FiniteField(q)``: q an odd prime power, q > 3 (and in the sweeps q is
  always larger than the curve degree).  The Grothendieck-Witt group is
  rank plus a discriminant bit, with product rule
  disc(ab) = rank(b)*disc(a) + rank(a)*disc(b) mod 2.
* ``ClosedField``: rank only, the quadratically closed case.

``specialize_field`` pushes a multi-affine element through a model, given
one unit square class per variable.  Assignments must be units: for the
real model a sign (+1 or -1), for a finite field a square/nonsquare bit
(0 or 1), and the closed model ignores the value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intmath import factor_prime_power, legendre_is_square
from .univ import TildeElement, UnivElement, mask_labels


@dataclass(frozen=True, slots=True)
class RealClass:
    rank: int = 0
    sig: int = 0

    def __add__(self, other: "RealClass") -> "RealClass":
        return RealClass(self.rank + other.rank, self.sig + other.sig)

    def __sub__(self, other: "RealClass") -> "RealClass":
        return RealClass(self.rank - other.rank, self.sig - other.sig)

    def __mul__(self, other: "RealClass") -> "RealClass":
        return RealClass(self.rank * other.rank, self.sig * other.sig)

    def is_zero(self) -> bool:
        return self.rank == 0 and self.sig == 0


@dataclass(frozen=True, slots=True)
class FqClass:
    rank: int = 0
    disc: int = 0

    def __post_init__(self):
        object.__setattr__(self, "disc", self.disc & 1)

    def __add__(self, other: "FqClass") -> "FqClass":
        return FqClass(self.rank + other.rank, self.disc ^ other.disc)

    def __sub__(self, other: "FqClass") -> "FqClass":
        return FqClass(self.rank - other.rank, self.disc ^ other.disc)

    def __mul__(self, other: "FqClass") -> "FqClass":
        return FqClass(
            self.rank * other.rank,
            ((other.rank & 1) * self.disc) ^ ((self.rank & 1) * other.disc),
        )

    def is_zero(self) -> bool:
        return self.rank == 0 and self.disc == 0


@dataclass(frozen=True, slots=True)
class ClosedClass:
    rank: int = 0

    def __add__(self, other: "ClosedClass") -> "ClosedClass":
        return ClosedClass(self.rank + other.rank)

    def __sub__(self, other: "ClosedClass") -> "ClosedClass":
        return ClosedClass(self.rank - other.rank)

    def __mul__(self, other: "ClosedClass") -> "ClosedClass":
        return ClosedClass(self.rank * other.rank)

    def is_zero(self) -> bool:
        return self.rank == 0


class RealField:
    def zero(self) -> RealClass:
        return RealClass(0, 0)

    def one(self) -> RealClass:
        return RealClass(1, 1)

    def from_univ(self, u: UnivElement) -> RealClass:
        # <1> -> (1,1), h -> (2,0), <2> -> (1,1).
        return RealClass(u.c1 + 2 * u.ch + u.c2, u.c1 + u.c2)

    def variable_class(self, value) -> RealClass:
        if value not in (1, -1):
            raise ValueError(f"real assignment must be a sign, got {value!r}")
        return RealClass(1, value)

    def describe(self) -> str:
        return "real"


class FiniteField:
    def __init__(self, q: int):
        p, k = factor_prime_power(q)
        if p == 2 or q <= 3:
            raise ValueError(f"finite-field model needs an odd prime power > 3, got {q}")
        self.q = q
        self.p = p
        self.k = k
        self.bit_minus_one = 0 if self.is_square(-1) else 1
        self.bit_two = 0 if self.is_square(2) else 1

    def is_square(self, a: int) -> bool:
        """Whether the integer a, a unit mod p, is a square in F_q."""
        if a % self.p == 0:
            raise ValueError(f"{a} is not a unit modulo {self.p}")
        # An element of the prime field is a square in F_{p^k} exactly
        # when it is a square mod p or the extension degree is even.
        return self.k % 2 == 0 or legendre_is_square(a, self.p)

    def zero(self) -> FqClass:
        return FqClass(0, 0)

    def one(self) -> FqClass:
        return FqClass(1, 0)

    def from_univ(self, u: UnivElement) -> FqClass:
        disc = ((u.ch & 1) * self.bit_minus_one) ^ ((u.c2 & 1) * self.bit_two)
        return FqClass(u.rank, disc)

    def variable_class(self, value) -> FqClass:
        if value not in (0, 1):
            raise ValueError(
                f"finite-field assignment must be a square bit (0 or 1), got {value!r}"
            )
        return FqClass(1, value)

    def describe(self) -> str:
        return f"fq:{self.q}"


class ClosedField:
    def zero(self) -> ClosedClass:
        return ClosedClass(0)

    def one(self) -> ClosedClass:
        return ClosedClass(1)

    def from_univ(self, u: UnivElement) -> ClosedClass:
        return ClosedClass(u.rank)

    def variable_class(self, value) -> ClosedClass:
        return ClosedClass(1)

    def describe(self) -> str:
        return "closed"


def specialize_field(e, model, assign: dict | None = None):
    """Evaluate a universal or multi-affine element in a field model.

    ``assign`` maps each variable label to a unit square class in the
    model's convention.  Every variable occurring in ``e`` must be
    assigned; assigning a non-unit raises ValueError.
    """
    if isinstance(e, UnivElement):
        return model.from_univ(e)
    if not isinstance(e, TildeElement):
        raise TypeError(f"cannot specialize {type(e).__name__}")
    assign = assign or {}
    var_images = {}
    used = 0
    for key in e.coeffs:
        used |= key
    for label in mask_labels(used):
        if label not in assign:
            raise ValueError(f"no assignment for variable x{label}")
        var_images[label] = model.variable_class(assign[label])
    total = model.zero()
    for key, coeff in e.coeffs.items():
        term = model.from_univ(coeff)
        for label in mask_labels(key):
            term = term * var_images[label]
        total = total + term
    return total
