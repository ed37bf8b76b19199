"""Field models: homomorphic images of the universal ring.

Three concrete targets are supported.

* ``RealField``: elements are (rank, signature) pairs with componentwise
  arithmetic.  A rank-one class maps to (1, sign of the unit), h to (2, 0).
* ``FiniteField(q)``: q an odd prime power, 3 < q <= 10^12 (and in the
  sweeps q is always larger than the curve degree).  The Grothendieck-Witt
  group is rank plus a discriminant bit, with product rule
  disc(ab) = rank(b)*disc(a) + rank(a)*disc(b) mod 2.
* ``ClosedField``: rank only, the quadratically closed case.

Each model owns its assignments: ``values`` are one variable's unit
values in sweep order (real: the signs 1, -1; F_q: the square bits 0, 1;
closed: 0, a value it ignores), ``describe_assign`` names an assignment
("+-", "sq/ns", "") and ``parse_assign`` reads that text back, as
``field_model`` reads back the name that ``describe`` gives a model.
``specialize_field`` pushes a universal or multi-affine element through a
model; it is the one entry point that validates a dict assignment.

Every variable maps to a rank-one class, so the image of an element is a
pair of integers read off its terms in one pass.  An assignment is a flip
mask: bit l-1 is set when x_l is negative (real) or a nonsquare (F_q).
With c a term's coefficient, k its monomial mask, r = rank(c) and
v = c1 + c2,

* real: rank = sum r, and sig = sum of +-v, the sign negative when
  popcount(k & mask) is odd;
* F_q: rank = sum r, and disc = XOR over the terms of
  disc(c) ^ (r & 1 & parity of popcount(k & mask));
* closed: rank = sum r.

``evaluate`` is that pass at one mask; ``specialize_field``, the checks
and the CLI read it, and a universal element is the coefficient of the
empty monomial.  ``vanishing`` says at every mask of n variables at once
whether the image is zero, and the wall-crossing sweep reads that.  The
rank does not depend on the mask, and the rest follows in two lines:

* the signature at mask m is sum_k (-1)^popcount(k & m) v_k, the
  Walsh-Hadamard transform of v indexed by key, so n butterfly passes
  over 2^n integers give it at every mask;
* popcount(k & m) mod 2 = XOR_l k_l m_l is linear in k, so the XOR of
  the odd-rank terms' parities is parity(K & m), with K the XOR of their
  keys, and disc at mask m is D ^ parity(K & m), D the XOR of the
  disc(c): one pass over the terms, then O(1) a mask.

Each model's ``flip`` validates one assigned value and gives its bit of
the mask.  ``finite_field(q)`` shares one model per order among all
callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import add, not_, sub

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
    values = (1, -1)

    def flip(self, value) -> int:
        if value not in (1, -1):
            raise ValueError(f"real assignment must be a sign, got {value!r}")
        return 1 if value == -1 else 0

    def evaluate(self, coeffs, negative: int) -> RealClass:
        """Image of the multi-affine element with these coefficients, the
        variables in ``negative`` (a label mask) sent to -1."""
        rank = sig = 0
        for key, c in coeffs.items():
            rank += c.c1 + 2 * c.ch + c.c2
            if (key & negative).bit_count() & 1:
                sig -= c.c1 + c.c2
            else:
                sig += c.c1 + c.c2
        return RealClass(rank, sig)

    def vanishing(self, coeffs, nvars: int) -> list[bool]:
        """Whether the image is zero at each flip mask below 2^nvars,
        indexed by the mask; the keys are masks below 2^nvars too."""
        rank = 0
        sig = [0] * (1 << nvars)
        for key, c in coeffs.items():
            rank += c.c1 + 2 * c.ch + c.c2
            sig[key] = c.c1 + c.c2
        if rank:
            return [False] * len(sig)
        # Each butterfly pass combines the entries whose indices differ in
        # bit 0 and moves that bit to the top, sums below and differences
        # above; after nvars passes every bit is back in place, and sig[m]
        # is the signature at mask m.
        for _ in range(nvars):
            even, odd = sig[::2], sig[1::2]
            sig = [*map(add, even, odd), *map(sub, even, odd)]
        return list(map(not_, sig))

    def describe(self) -> str:
        return "real"

    def describe_assign(self, assign: dict) -> str:
        return "".join("+" if assign[l] == 1 else "-" for l in sorted(assign))

    def parse_assign(self, text: str | None, s: int) -> dict[int, int]:
        """The assignment of labels 1..s that ``describe_assign`` names
        ``text``, commas ignored; None sends every label to +1."""
        if text is None:
            return dict.fromkeys(range(1, s + 1), self.values[0])
        text = text.replace(",", "")
        if len(text) != s or any(ch not in "+-" for ch in text):
            raise ValueError(f"sign pattern must be {s} characters of '+'/'-', got {text!r}")
        return {l: 1 if ch == "+" else -1 for l, ch in enumerate(text, start=1)}


class FiniteField:
    values = (0, 1)

    def __init__(self, q: int):
        # Checked before factoring: factor_prime_power trial-divides up to
        # sqrt(q), about 0.1 s at the bound.
        if q % 2 == 0 or not 3 < q <= 10**12:
            raise ValueError(f"finite-field model needs an odd prime power 3 < q <= 10^12, got {q}")
        p, k = factor_prime_power(q)
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

    def flip(self, value) -> int:
        if value not in (0, 1):
            raise ValueError(
                f"finite-field assignment must be a square bit (0 or 1), got {value!r}"
            )
        return value

    def evaluate(self, coeffs, nonsquare: int) -> FqClass:
        """Image of the multi-affine element with these coefficients, the
        variables in ``nonsquare`` (a label mask) sent to a nonsquare."""
        minus_one, two = self.bit_minus_one, self.bit_two
        rank = disc = 0
        for key, c in coeffs.items():
            r = c.c1 + 2 * c.ch + c.c2
            rank += r
            # h = <1> + <-1> has the discriminant of -1; each nonsquare
            # variable shifts the discriminant of an odd-rank term.
            disc ^= (c.ch & minus_one) ^ (c.c2 & two) ^ (r & (key & nonsquare).bit_count() & 1)
        return FqClass(rank, disc)

    def vanishing(self, coeffs, nvars: int) -> list[bool]:
        """Whether the image is zero at each flip mask below 2^nvars,
        indexed by the mask."""
        minus_one, two = self.bit_minus_one, self.bit_two
        rank = disc = odd_keys = 0
        for key, c in coeffs.items():
            r = c.c1 + 2 * c.ch + c.c2
            rank += r
            disc ^= (c.ch & minus_one) ^ (c.c2 & two)
            if r & 1:
                odd_keys ^= key
        if rank:
            return [False] * (1 << nvars)
        # Setting bit l of the mask flips the parity exactly when bit l of
        # odd_keys is set, so each bit doubles the list, flipped or not.
        zero = [not disc]
        for l in range(nvars):
            zero = zero + (list(map(not_, zero)) if odd_keys >> l & 1 else zero)
        return zero

    def describe(self) -> str:
        return f"fq:{self.q}"

    def describe_assign(self, assign: dict) -> str:
        return "/".join("sq" if assign[l] == 0 else "ns" for l in sorted(assign))

    def parse_assign(self, text: str | None, s: int) -> dict[int, int]:
        """The assignment of labels 1..s that ``describe_assign`` names
        ``text``, a comma read as '/'; None sends every label to a square."""
        if text is None:
            return dict.fromkeys(range(1, s + 1), self.values[0])
        tokens = [t for t in text.replace(",", "/").split("/") if t]
        if len(tokens) != s or any(t not in ("sq", "ns") for t in tokens):
            raise ValueError(
                f"assignment must be {s} 'sq'/'ns' tokens separated by '/', got {text!r}"
            )
        return {l: 0 if t == "sq" else 1 for l, t in enumerate(tokens, start=1)}


@cache
def finite_field(q: int) -> FiniteField:
    """The model of F_q shared by every caller.

    Cached per finite-field order."""
    return FiniteField(q)


class ClosedField:
    values = (0,)

    def flip(self, value) -> int:
        return 0

    def evaluate(self, coeffs, flips: int) -> ClosedClass:
        """Image of the multi-affine element with these coefficients; every
        unit is a square, so the flips do not matter."""
        return ClosedClass(sum(c.rank for c in coeffs.values()))

    def vanishing(self, coeffs, nvars: int) -> list[bool]:
        """Whether the image is zero at each flip mask below 2^nvars: at
        all of them or at none."""
        return [sum(c.rank for c in coeffs.values()) == 0] * (1 << nvars)

    def describe(self) -> str:
        return "closed"

    def describe_assign(self, assign: dict) -> str:
        return ""

    def parse_assign(self, text: str | None, s: int) -> dict[int, int]:
        """Labels 1..s at 0: every unit is a square, so the text names
        nothing."""
        return dict.fromkeys(range(1, s + 1), self.values[0])


def field_model(name: str):
    """The model that ``describe()`` names ``name``: ``real``, ``closed``
    or ``fq:Q`` (the shared ``finite_field(Q)``)."""
    if name == "real":
        return RealField()
    if name == "closed":
        return ClosedField()
    if name.startswith("fq:") and name[3:].isdigit():
        return finite_field(int(name[3:]))
    raise ValueError(
        f"unknown field model {name!r}; expected real, closed, or fq:Q for an odd prime power Q"
    )


def specialize_field(e, model, assign: dict | None = None):
    """Evaluate a universal or multi-affine element in a field model.

    ``assign`` maps each variable label to a unit square class in the
    model's convention.  Every variable occurring in ``e`` must be
    assigned; assigning a non-unit raises ValueError.
    """
    if isinstance(e, UnivElement):
        return model.evaluate({0: e}, 0)
    if not isinstance(e, TildeElement):
        raise TypeError(f"cannot specialize {type(e).__name__}")
    assign = assign or {}
    used = 0
    for key in e.coeffs:
        used |= key
    flips = 0
    for label in mask_labels(used):
        if label not in assign:
            raise ValueError(f"no assignment for variable x{label}")
        flips |= model.flip(assign[label]) << (label - 1)
    return model.evaluate(e.coeffs, flips)
