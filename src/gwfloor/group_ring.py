"""Group ring over a finite elementary-abelian group of square classes,
and its hyperbolic reduction.

The carrier fixes an ordered list of independent square-class generators:
position 0 is always -1, position 1 is always 2, followed by the odd
primes needed and then any formal parameter symbols.  A monomial <g> is a
bit-packed exponent vector over these generators, so multiplication of
monomials is XOR.

The hyperbolic reduction imposes <g> + <-g> = h for every class g, where
h = <1> + <-1>.  Every monomial containing the -1 bit rewrites as
h - <positive part>, leaving a free module on {h} together with the
monomials not involving -1.  Products follow from h*<g> = h and h*h = 2h.

The raw constructors at the end (``m_a1_raw``, ``gamma_hat_raw``,
``type_a_closed_raw``, ``elevator_square_closed_raw``) rebuild the local
factors symbol by symbol in the reduced ring: an oracle for their closed
forms, which the identity suite checks for every m up to 60.  The count
path never imports this module.
"""

from __future__ import annotations

from typing import Mapping

from .intmath import odd_primes_up_to, squarefree_split
from .univ import UnivElement


class SquareClassCarrier:
    """Ordered generator list for bit-packed square-class monomials."""

    __slots__ = ("generators", "_index", "_prime_bits")

    def __init__(self, odd_primes: tuple[int, ...] = (), formal: tuple[str, ...] = ()):
        primes = tuple(sorted(set(odd_primes)))
        gens = ["-1", "2"] + [str(p) for p in primes] + list(formal)
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator names")
        self.generators = tuple(gens)
        self._index = {name: i for i, name in enumerate(gens)}
        self._prime_bits = {p: 1 << self._index[str(p)] for p in primes}

    @property
    def size(self) -> int:
        return len(self.generators)

    def bit(self, name: str) -> int:
        return 1 << self._index[name]

    def class_of_int(self, n: int) -> int:
        """Square-class monomial of the nonzero integer n."""
        core, _ = squarefree_split(n)
        mask = 0
        if core < 0:
            mask |= 1
            core = -core
        while core % 2 == 0:
            mask ^= 2
            core //= 2
        for p, pbit in self._prime_bits.items():
            while core % p == 0:
                mask ^= pbit
                core //= p
        if core != 1:
            raise ValueError(f"odd prime factor {core} missing from carrier")
        return mask

    def monomial_name(self, mask: int) -> str:
        if mask == 0:
            return "<1>"
        names = [self.generators[i] for i in range(self.size) if mask >> i & 1]
        return "<" + "*".join(names) + ">"

    def __eq__(self, other):
        return isinstance(other, SquareClassCarrier) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)


class GroupRingElement:
    """Integer group-ring element: sparse {monomial mask: coefficient}."""

    __slots__ = ("carrier", "coeffs")

    def __init__(self, carrier: SquareClassCarrier, coeffs: Mapping[int, int] | None = None):
        self.carrier = carrier
        self.coeffs = {m: c for m, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def symbol(cls, carrier: SquareClassCarrier, mask: int, coeff: int = 1) -> "GroupRingElement":
        return cls(carrier, {mask: coeff})

    def _check(self, other: "GroupRingElement") -> None:
        if self.carrier != other.carrier:
            raise ValueError("carrier mismatch")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return GroupRingElement(self.carrier, out)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) - c
        return GroupRingElement(self.carrier, out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.carrier, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.carrier, {m: other * c for m, c in self.coeffs.items()})
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check(other)
        out: dict[int, int] = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                key = ma ^ mb
                out[key] = out.get(key, 0) + ca * cb
        return GroupRingElement(self.carrier, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.carrier == other.carrier and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.carrier, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [
            f"{c}*{self.carrier.monomial_name(m)}"
            for m, c in sorted(self.coeffs.items())
        ]
        return " + ".join(parts)


class HypUnivElement:
    """Hyperbolically reduced group-ring element.

    Stored as an integer multiple of h plus an integer combination of
    monomials whose -1 bit is clear.  The supporting relations are
    h*<g> = h and h*h = 2h; products of reduced monomials XOR their masks
    (the -1 bit stays clear automatically).
    """

    __slots__ = ("carrier", "hcoeff", "coeffs")

    def __init__(
        self,
        carrier: SquareClassCarrier,
        hcoeff: int = 0,
        coeffs: Mapping[int, int] | None = None,
    ):
        self.carrier = carrier
        self.hcoeff = hcoeff
        clean: dict[int, int] = {}
        for m, c in (coeffs or {}).items():
            if m & 1:
                raise ValueError("reduced monomial may not contain the -1 bit")
            if c != 0:
                clean[m] = c
        self.coeffs = clean

    @classmethod
    def h(cls, carrier: SquareClassCarrier, coeff: int = 1) -> "HypUnivElement":
        return cls(carrier, hcoeff=coeff)

    @classmethod
    def symbol(cls, carrier: SquareClassCarrier, mask: int, coeff: int = 1) -> "HypUnivElement":
        """The reduced image of the single monomial <mask>."""
        if mask & 1:
            return cls(carrier, hcoeff=coeff, coeffs={mask ^ 1: -coeff})
        return cls(carrier, coeffs={mask: coeff})

    @classmethod
    def of_int(cls, carrier: SquareClassCarrier, n: int, coeff: int = 1) -> "HypUnivElement":
        return cls.symbol(carrier, carrier.class_of_int(n), coeff)

    def _check(self, other: "HypUnivElement") -> None:
        if self.carrier != other.carrier:
            raise ValueError("carrier mismatch")

    def __add__(self, other: "HypUnivElement") -> "HypUnivElement":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return HypUnivElement(self.carrier, self.hcoeff + other.hcoeff, out)

    def __sub__(self, other: "HypUnivElement") -> "HypUnivElement":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) - c
        return HypUnivElement(self.carrier, self.hcoeff - other.hcoeff, out)

    def __neg__(self) -> "HypUnivElement":
        return HypUnivElement(
            self.carrier, -self.hcoeff, {m: -c for m, c in self.coeffs.items()}
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return HypUnivElement(
                self.carrier,
                other * self.hcoeff,
                {m: other * c for m, c in self.coeffs.items()},
            )
        if not isinstance(other, HypUnivElement):
            return NotImplemented
        self._check(other)
        asum = sum(self.coeffs.values())
        bsum = sum(other.coeffs.values())
        hpart = 2 * self.hcoeff * other.hcoeff + self.hcoeff * bsum + other.hcoeff * asum
        out: dict[int, int] = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                key = ma ^ mb
                out[key] = out.get(key, 0) + ca * cb
        return HypUnivElement(self.carrier, hpart, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, HypUnivElement):
            return NotImplemented
        return (
            self.carrier == other.carrier
            and self.hcoeff == other.hcoeff
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.carrier, self.hcoeff, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return self.hcoeff == 0 and not self.coeffs

    @property
    def rank(self) -> int:
        return 2 * self.hcoeff + sum(self.coeffs.values())

    def to_univ(self) -> UnivElement:
        """Project onto the rank-3 universal ring.

        Only valid when the support lies in {<1>, <2>}; raises otherwise.
        """
        two_bit = self.carrier.bit("2")
        c1 = self.coeffs.get(0, 0)
        c2 = self.coeffs.get(two_bit, 0)
        extra = set(self.coeffs) - {0, two_bit}
        if extra:
            names = ", ".join(self.carrier.monomial_name(m) for m in sorted(extra))
            raise ValueError(f"support outside the universal span: {names}")
        return UnivElement(c1, self.hcoeff, c2)

    def __repr__(self) -> str:
        parts = []
        if self.hcoeff:
            parts.append(f"{self.hcoeff}*h")
        for m, c in sorted(self.coeffs.items()):
            parts.append(f"{c}*{self.carrier.monomial_name(m)}")
        return " + ".join(parts) if parts else "0"


def hyp_univ_reduce(e: GroupRingElement) -> HypUnivElement:
    """Reduce a plain group-ring element by <g> + <-g> = h for all g."""
    hcoeff = 0
    coeffs: dict[int, int] = {}
    for mask, c in e.coeffs.items():
        if mask & 1:
            hcoeff += c
            pos = mask ^ 1
            coeffs[pos] = coeffs.get(pos, 0) - c
        else:
            coeffs[mask] = coeffs.get(mask, 0) + c
    return HypUnivElement(e.carrier, hcoeff, coeffs)


# ---------------------------------------------------------------------------
# Raw symbol-by-symbol constructions
# ---------------------------------------------------------------------------


def carrier_for(max_m: int, formal: tuple[str, ...] = ()) -> SquareClassCarrier:
    """Carrier large enough for every symbol appearing up to weight max_m."""
    return SquareClassCarrier(odd_primes_up_to(max(max_m, 3)), formal)


def m_a1_raw(m: int, carrier: SquareClassCarrier) -> HypUnivElement:
    """The rank-m class counting an m-fold cover: <m> + ((m-1)//2) h for
    odd m, (m//2) h for even m."""
    if m < 1:
        raise ValueError("weight must be positive")
    if m % 2:
        return HypUnivElement.of_int(carrier, m) + HypUnivElement.h(carrier, (m - 1) // 2)
    return HypUnivElement.h(carrier, m // 2)


def gamma_hat_raw(
    m: int, carrier: SquareClassCarrier, d_symbol: str | None = None
) -> HypUnivElement:
    """Vertex correction factor of weight m with parameter square class d.

    ``d_symbol`` names a formal generator of the carrier standing for d;
    None means d = 1.  Rank is m in every case.
    """
    if m < 1:
        raise ValueError("weight must be positive")
    dbit = carrier.bit(d_symbol) if d_symbol is not None else 0

    def sym(n: int, extra_bit: int = 0, coeff: int = 1) -> HypUnivElement:
        return HypUnivElement.symbol(carrier, carrier.class_of_int(n) ^ extra_bit, coeff)

    if m % 2:
        c = (m - 1) // 2
        return sym(m) + sym(2 * m, 0, c) + sym(-2 * m, dbit, c)
    if m % 4 == 0:
        c = m // 4
        return sym(2 * m, 0, c) + sym(-2 * m, dbit, c) + HypUnivElement.h(carrier, c)
    c = (m - 2) // 4
    return (
        sym(1)
        + sym(-1, dbit)
        + sym(2 * m, 0, c)
        + sym(-2 * m, dbit, c)
        + HypUnivElement.h(carrier, c)
    )


def type_a_closed_raw(
    m: int, carrier: SquareClassCarrier, d_symbol: str | None = None
) -> HypUnivElement:
    """Closed form of gamma_hat * m_a1 stated directly in the carrier."""
    if m % 2 == 0:
        return HypUnivElement.h(carrier, m * m // 2)
    dbit = carrier.bit(d_symbol) if d_symbol is not None else 0
    c = (m - 1) // 2
    two = carrier.bit("2")
    out = HypUnivElement.symbol(carrier, 0)
    out = out + HypUnivElement.symbol(carrier, two, c)
    out = out + HypUnivElement.symbol(carrier, 1 ^ two ^ dbit, c)
    return out + HypUnivElement.h(carrier, m * (m - 1) // 2)


def elevator_square_closed_raw(m: int, carrier: SquareClassCarrier) -> HypUnivElement:
    if m % 2:
        return HypUnivElement.symbol(carrier, 0) + HypUnivElement.h(carrier, (m * m - 1) // 2)
    return HypUnivElement.h(carrier, m * m // 2)
