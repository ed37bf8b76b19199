"""Exact arithmetic in the rank-3 universal coefficient ring and its
multi-affine extension by involutive parameter variables.

The universal ring is free of rank 3 over the integers with basis
``{<1>, h, <2>}`` and multiplication determined by

    h*h   = 2h,
    h*<2> = h,
    <2>*<2> = <1>.

Here ``<u>`` denotes the class of the rank-one form scaled by the unit u
and ``h`` the hyperbolic form.  The derived symbols are

    <-1> = h - <1>,      <-2> = h - <2>.

The residual ring F_2[eps]/(eps^2 - 1) is the quotient of the universal
ring by (2, h), with eps the image of <2>.

Ring elements are immutable tuples of their integer coordinates,
``UnivElement`` (c1, ch, c2) and ``ResidualElement`` (a, b); the kernels
unpack them, and ``RingValue`` keeps them from comparing equal to, or
combining with, a plain tuple or the other ring's values.

The multi-affine extension adjoins commuting variables ``x_1 .. x_s``
subject to ``x_l**2 = 1``; ``x_l`` stands for the square class of the
l-th double-point parameter.  One sparse container, ``MultiAffine``,
holds its elements over either coefficient ring: a map from monomials to
nonzero coefficients, where a monomial is an integer bitmask with bit
l-1 set when x_l occurs, so multiplication convolves keys by XOR.  The
subclasses ``TildeElement`` (universal coefficients) and
``ResidualTilde`` (residual coefficients) fix the ring.

Variable labels are validated only where they enter from outside: the
constructor taking ``{frozenset(labels): coeff}``, ``variable``,
``coefficient``, ``specialize_one`` and the cascade orders, each
through one rule (``_label_mask``: an ``int`` in 1..nvars); a variable
count must be an ``int`` (``check_variable_count``).  Products, the
cascade and the residual reduction work on masks.  Every sum,
difference, negation and count goes through ``linear_combination``,
which adds integer coordinates key by key with the ring's own unrolled
step, ``_accumulate``, just as each ring supplies its ``__add__`` and
``__mul__``.

All coefficients are Python integers and therefore arbitrary precision;
no arithmetic in this module can overflow or round.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Mapping


# Builds a value from coordinates that are already in range, skipping the
# constructor's normalisation: the ring kernels below return through it.
_new = tuple.__new__


class RingValue:
    """Tuple behaviour of a ring value, the tuple of its coordinates.

    Mixed into a coordinate ``namedtuple``: a value equals, and hashes as,
    only a value of its own class, never a plain tuple or a value of
    another ring, and ``n * value`` never repeats the tuple.  Each ring's
    ``__add__`` and ``__mul__`` accept only their own class, so a sum
    never concatenates either.
    """

    __slots__ = ()

    # False, not NotImplemented: a plain tuple's reflected comparison
    # would take the value for its coordinates.
    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __rmul__(self, n):
        return NotImplemented


# ---------------------------------------------------------------------------
# Universal ring elements
# ---------------------------------------------------------------------------


class UnivElement(RingValue, namedtuple("UnivElement", "c1 ch c2", defaults=(0, 0, 0))):
    """Element c1*<1> + ch*h + c2*<2> of the universal coefficient ring."""

    __slots__ = ()

    def __add__(self, other: "UnivElement") -> "UnivElement":
        if type(other) is not UnivElement:
            return NotImplemented
        a1, ah, a2 = self
        b1, bh, b2 = other
        return _new(UnivElement, (a1 + b1, ah + bh, a2 + b2))

    def __sub__(self, other: "UnivElement") -> "UnivElement":
        if type(other) is not UnivElement:
            return NotImplemented
        a1, ah, a2 = self
        b1, bh, b2 = other
        return _new(UnivElement, (a1 - b1, ah - bh, a2 - b2))

    def __neg__(self) -> "UnivElement":
        a1, ah, a2 = self
        return _new(UnivElement, (-a1, -ah, -a2))

    def __rmul__(self, n: int) -> "UnivElement":
        if not isinstance(n, int):
            return NotImplemented
        a1, ah, a2 = self
        return _new(UnivElement, (n * a1, n * ah, n * a2))

    def __mul__(self, other):
        if type(other) is not UnivElement:
            return self.__rmul__(other)  # scaled by an int, else NotImplemented
        a1, ah, a2 = self
        b1, bh, b2 = other
        # h absorbs every rank-one symbol: h*<u> = h, and h*h = 2h.
        return _new(UnivElement, (
            a1 * b1 + a2 * b2,
            a1 * bh + ah * b1 + 2 * ah * bh + ah * b2 + a2 * bh,
            a1 * b2 + a2 * b1,
        ))

    def is_zero(self) -> bool:
        return self.c1 == 0 and self.ch == 0 and self.c2 == 0

    @property
    def rank(self) -> int:
        a1, ah, a2 = self
        return a1 + 2 * ah + a2

    def to_json(self) -> dict:
        return {"one": self.c1, "h": self.ch, "two": self.c2}

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for coeff, sym in ((self.c1, "<1>"), (self.ch, "h"), (self.c2, "<2>")):
            if coeff == 0:
                continue
            if coeff == 1:
                parts.append(sym)
            elif coeff == -1:
                parts.append(f"-{sym}")
            else:
                parts.append(f"{coeff}{sym}")
        return " + ".join(parts).replace("+ -", "- ")


UNIV_ZERO = UnivElement(0, 0, 0)
UNIV_ONE = UnivElement(1, 0, 0)
UNIV_H = UnivElement(0, 1, 0)
UNIV_TWO = UnivElement(0, 0, 1)
UNIV_MINUS_ONE = UNIV_H - UNIV_ONE
UNIV_MINUS_TWO = UNIV_H - UNIV_TWO


# ---------------------------------------------------------------------------
# Residual quotient (coefficients mod 2, h killed)
# ---------------------------------------------------------------------------


class ResidualElement(RingValue, namedtuple("ResidualElement", "a b")):
    """Element a + b*eps of F_2[eps]/(eps^2 - 1).

    The quotient of the universal ring by (2, h); eps is the image of <2>.
    The constructor reduces both coordinates mod 2.
    """

    __slots__ = ()

    def __new__(cls, a: int = 0, b: int = 0) -> "ResidualElement":
        return _new(cls, (a & 1, b & 1))

    @classmethod
    def _make(cls, iterable):
        """Build through the validating constructor, so ``_replace`` does."""
        return cls(*iterable)

    def __add__(self, other: "ResidualElement") -> "ResidualElement":
        if type(other) is not ResidualElement:
            return NotImplemented
        a, b = self
        c, d = other
        return _new(ResidualElement, (a ^ c, b ^ d))

    __sub__ = __add__

    def __neg__(self) -> "ResidualElement":
        return self

    def __mul__(self, other: "ResidualElement") -> "ResidualElement":
        if type(other) is not ResidualElement:
            return NotImplemented
        a, b = self
        c, d = other
        return _new(ResidualElement, ((a & c) ^ (b & d), (a & d) ^ (b & c)))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __repr__(self) -> str:
        return {(0, 0): "0", (1, 0): "1", (0, 1): "eps", (1, 1): "1 + eps"}[
            (self.a, self.b)
        ]


RES_ZERO = ResidualElement(0, 0)
RES_ONE = ResidualElement(1, 0)
RES_EPS = ResidualElement(0, 1)


# ---------------------------------------------------------------------------
# Multi-affine extension
# ---------------------------------------------------------------------------


def check_variable_count(nvars) -> None:
    """Raise ValueError unless ``nvars`` is a nonnegative ``int``; a
    ``bool`` or a float of integral value is not a count."""
    if type(nvars) is not int or nvars < 0:
        raise ValueError(f"variable count must be a nonnegative int, got {nvars!r}")


def _label_mask(labels: Iterable[int], nvars: int) -> int:
    """Bitmask of a set of variable labels, each checked to be an ``int``
    in 1..nvars; a ``bool`` or a float of integral value is not a label."""
    mask = 0
    for label in frozenset(labels):
        if type(label) is not int or not 1 <= label <= nvars:
            raise ValueError(f"variable label must be an int in 1..{nvars}, got {label!r}")
        mask |= 1 << (label - 1)
    return mask


def mask_labels(mask: int) -> tuple[int, ...]:
    """The labels whose bits are set in ``mask``, ascending."""
    return tuple(l for l in range(1, mask.bit_length() + 1) if mask >> (l - 1) & 1)


class MultiAffine:
    """Sparse element of the multi-affine extension in ``nvars`` variables.

    ``coeffs`` maps monomial bitmasks to nonzero coefficients; key 0 is
    the constant part.  Every variable is involutive, so keys multiply by
    XOR and no key repeats a variable.  A subclass fixes the coefficient
    ring through ``_zero``, whose type is the ring, ``_one`` and
    ``_accumulate``.  A ring element is the tuple of its integer
    coordinates, so a coefficient is zero exactly when all of them are.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Mapping[frozenset, object] | None = None):
        check_variable_count(nvars)
        self.nvars = nvars
        clean = {}
        for key, val in (coeffs or {}).items():
            mask = _label_mask(key, nvars)
            val = self._coerce(val)
            if not val.is_zero():
                clean[mask] = val
        self.coeffs = clean

    @classmethod
    def _coerce(cls, value):
        """``value`` in the coefficient ring: an int n as n<1>, a ring
        element as itself; anything else raises TypeError."""
        ring = type(cls._zero)
        if isinstance(value, ring):
            return value
        if isinstance(value, int):
            return ring(value)
        raise TypeError(f"cannot coerce {value!r} to a {ring.__name__}")

    @classmethod
    def _of_masks(cls, nvars: int, coeffs: dict):
        """Wrap mask-keyed coefficients without checking keys; drop zeros."""
        return cls._wrap(nvars, {k: v for k, v in coeffs.items() if any(v)})

    @classmethod
    def _wrap(cls, nvars: int, coeffs: dict):
        """Wrap mask-keyed nonzero coefficients as they are."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.coeffs = coeffs
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, nvars: int):
        return cls(nvars, {frozenset(): value})

    @classmethod
    def variable(cls, label: int, nvars: int):
        check_variable_count(nvars)
        return cls._wrap(nvars, {_label_mask((label,), nvars): cls._one})

    @classmethod
    def zero(cls, nvars: int):
        return cls(nvars, {})

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other) -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.linear_combination(self.nvars, ((self, 1), (other, 1)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.linear_combination(self.nvars, ((self, 1), (other, -1)))

    @classmethod
    def linear_combination(cls, nvars: int, terms: Iterable[tuple["MultiAffine", int]]):
        """The sum of n*e over the (e, n) pairs, each e in ``nvars``
        variables.  The ring's ``_accumulate`` adds each term's integer
        coordinates into one row per key, and one ring element is built
        per nonzero row.  The inputs are only read."""
        acc: dict[int, list[int]] = {}
        accumulate = cls._accumulate
        for e, n in terms:
            if e.nvars != nvars:
                raise ValueError(f"variable count mismatch: {nvars} vs {e.nvars}")
            accumulate(acc, e.coeffs, n)
        ring = type(cls._zero)
        return cls._wrap(nvars, {k: _new(ring, row) for k, row in acc.items() if any(row)})

    def __neg__(self):
        return self.linear_combination(self.nvars, ((self, -1),))

    def __mul__(self, other):
        if type(other) is not type(self):
            try:
                u = self._coerce(other)
            except TypeError:
                return NotImplemented
            return self._of_masks(self.nvars, {k: v * u for k, v in self.coeffs.items()})
        self._check_compatible(other)
        out = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                key = ka ^ kb
                term = va * vb
                out[key] = out[key] + term if key in out else term
        return self._of_masks(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- queries -----------------------------------------------------------

    def coefficient(self, labels: Iterable[int]):
        return self.coeffs.get(_label_mask(labels, self.nvars), self._zero)

    def terms(self) -> list[tuple[tuple[int, ...], object]]:
        """(labels, coefficient) pairs ordered by degree, then by labels."""
        return sorted(
            ((mask_labels(k), v) for k, v in self.coeffs.items()),
            key=lambda kv: (len(kv[0]), kv[0]),
        )

    def specialize_one(self, label: int):
        """Set x_label = 1 and drop its slot, in ``nvars - 1`` variables:
        higher labels shift down by one, and keys that differ only in
        x_label are summed."""
        low = _label_mask((label,), self.nvars) - 1
        zero = self._zero
        out = {}
        for key, val in self.coeffs.items():
            key = key & low | key >> 1 & ~low
            out[key] = out.get(key, zero) + val
        return self._of_masks(self.nvars - 1, out)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for labels, val in self.terms():
            mono = "".join(f"x{l}" for l in labels)
            parts.append(f"({val!r}){mono}" if mono else f"({val!r})")
        return " + ".join(parts)


class TildeElement(MultiAffine):
    """Multi-affine element with universal-ring coefficients."""

    __slots__ = ()

    _zero = UNIV_ZERO
    _one = UNIV_ONE

    @staticmethod
    def _accumulate(acc: dict, coeffs: dict, n: int) -> None:
        """Add n times each coefficient (c1, ch, c2) to its key's row."""
        get = acc.get
        for key, (c1, ch, c2) in coeffs.items():
            row = get(key)
            if row is None:
                acc[key] = [n * c1, n * ch, n * c2]
            else:
                row[0] += n * c1
                row[1] += n * ch
                row[2] += n * c2

    @property
    def rank(self) -> int:
        """Rank of the image under any field map (all x_l have rank 1)."""
        return sum(v.rank for v in self.coeffs.values())

    def to_json(self) -> list:
        return [{"vars": list(labels), "coeff": v.to_json()} for labels, v in self.terms()]


class ResidualTilde(MultiAffine):
    """Multi-affine element with residual-ring coefficients."""

    __slots__ = ()

    _zero = RES_ZERO
    _one = RES_ONE

    @staticmethod
    def _accumulate(acc: dict, coeffs: dict, n: int) -> None:
        """Add n times each coefficient (a, b) to its key's row, mod 2: an
        even n adds nothing, and an odd n adds the coefficient by XOR."""
        if not n & 1:
            return
        get = acc.get
        for key, (a, b) in coeffs.items():
            row = get(key)
            if row is None:
                acc[key] = [a, b]
            else:
                row[0] ^= a
                row[1] ^= b


def top_coefficient(e: MultiAffine):
    """Coefficient of the full monomial x_1 x_2 ... x_s, in either ring."""
    return e.coeffs.get((1 << e.nvars) - 1, e._zero)


# ---------------------------------------------------------------------------
# Multi-affine cascade
# ---------------------------------------------------------------------------


def cascade_decompose(
    e: TildeElement, order: Iterable[int]
) -> tuple[list[TildeElement], UnivElement]:
    """Peel variables off ``e`` one at a time in the given order.

    Writing F_0 = e and F_{q-1} = A_q + x_{j_q} * B_q with A_q free of
    x_{j_q}, the step records the witness S_q = A_q + B_q and continues
    with F_q = B_q.  After all s steps the residue F_s is a constant,
    the coefficient of the full monomial.  The defining identity

        e = sum_q S_q * prod_{p<q} (x_{j_p} - 1)
              + F_s * prod_{p<=s} (x_{j_p} - 1)

    is exercised by ``cascade_reconstruct`` and the property tests.

    Returns (witnesses, full_coefficient).  Witnesses are expressed in
    the ambient variable set; witness q does not involve x_{j_1}..x_{j_q}.
    """
    order = list(order)
    if len(order) != e.nvars or _label_mask(order, e.nvars) != (1 << e.nvars) - 1:
        raise ValueError(f"order {order} is not a permutation of 1..{e.nvars}")
    witnesses: list[TildeElement] = []
    current = e
    for label in order:
        bit = 1 << (label - 1)
        a_part: dict[int, UnivElement] = {}
        b_part: dict[int, UnivElement] = {}
        for key, val in current.coeffs.items():
            if key & bit:
                b_part[key ^ bit] = val
            else:
                a_part[key] = val
        a_elt = TildeElement._of_masks(e.nvars, a_part)
        b_elt = TildeElement._of_masks(e.nvars, b_part)
        witnesses.append(a_elt + b_elt)
        current = b_elt
    return witnesses, current.coeffs.get(0, UNIV_ZERO)


def cascade_reconstruct(
    witnesses: list[TildeElement], full: UnivElement, order: Iterable[int], nvars: int
) -> TildeElement:
    """Rebuild the decomposed element from its cascade data.  The shift
    polynomial prod_{p<q} (x_{j_p} - 1) is kept as a map from mask to
    signed integer, and each witness is multiplied into it by XOR of keys."""
    acc: dict[int, list[int]] = {}
    shift = {0: 1}

    def add(coeffs):
        for key, val in coeffs.items():
            c1, ch, c2 = val
            for mask, n in shift.items():
                row = acc.setdefault(key ^ mask, [0, 0, 0])
                row[0] += n * c1
                row[1] += n * ch
                row[2] += n * c2

    for label, witness in zip(order, witnesses):
        bit = _label_mask((label,), nvars)
        if witness.nvars != nvars:
            raise ValueError(f"witness in {witness.nvars} variables does not fit {nvars}")
        add(witness.coeffs)
        moved = {}
        for mask, n in shift.items():
            moved[mask ^ bit] = moved.get(mask ^ bit, 0) + n
            moved[mask] = moved.get(mask, 0) - n
        shift = moved
    add({0: full})
    return TildeElement._of_masks(nvars, {k: UnivElement(*row) for k, row in acc.items()})


def gw_normal_form(e: TildeElement) -> TildeElement:
    """Normal form of ``e`` in Q, the free ring modulo h*x_l = h and
    2<1> = 2<2>: relations of GW(F) for every field F (<1,1> = <2,2>), so
    every field image is kept.  The h-coefficients are summed into the
    constant key, and c1<1> + c2<2> becomes (c1 + c2 - c2 mod 2)<1> +
    (c2 mod 2)<2>.  Elements are equal in Q exactly when these are equal."""
    out = {k: UnivElement(v.c1 + v.c2 - (v.c2 & 1), 0, v.c2 & 1) for k, v in e.coeffs.items()}
    out[0] = out.get(0, UNIV_ZERO) + UnivElement(0, sum(v.ch for v in e.coeffs.values()), 0)
    return TildeElement._of_masks(e.nvars, out)


def pfister_element(s: int) -> TildeElement:
    """The 2-torsion product (<1> - <2>) * prod_l (<1> - x_l) on s
    variables, built directly over its 2^s monomials: the coefficient of
    x^b is (-1)^|b| (<1> - <2>).  Every coefficient is nonzero by
    construction, so the dict is wrapped as it is, without the zero test
    of ``_of_masks``."""
    check_variable_count(s)
    even = UNIV_ONE - UNIV_TWO
    odd = -even
    return TildeElement._wrap(s, {b: odd if b.bit_count() & 1 else even for b in range(1 << s)})


def first_term_name(e: MultiAffine) -> str:
    """The first monomial of ``e`` in ``terms`` order, as ``x1x3`` (``1``
    for the constant); ``e`` must be nonzero."""
    return "".join(f"x{l}" for l in e.terms()[0][0]) or "1"


def residual_reduce(e):
    """Image in the residual quotient: coefficients mod 2 with h killed.

    Accepts a UnivElement (returning a ResidualElement) or a TildeElement
    (returning a ResidualTilde).
    """
    if isinstance(e, UnivElement):
        return ResidualElement(e.c1, e.c2)
    if isinstance(e, TildeElement):
        return ResidualTilde._of_masks(
            e.nvars, {k: ResidualElement(v.c1, v.c2) for k, v in e.coeffs.items()}
        )
    raise TypeError(f"cannot reduce {type(e).__name__}")
