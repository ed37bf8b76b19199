"""Group ring over a finite elementary-abelian group of square classes,
and its hyperbolic reduction.

The carrier fixes an ordered list of independent square-class generators:
position 0 is always -1, position 1 is always 2, followed by the odd
primes needed and then any formal parameter symbols.  A monomial <g> is a
bit-packed exponent vector over these generators, so multiplication of
monomials is XOR.

Products are plain XOR convolutions: h is written out as <1> + <-1>, and
no product assumes h*<g> = h or h*h = 2h.  The hyperbolic relation
<g> + <-g> = <1> + <-1> is applied once, at comparison:
``hyperbolic_reduce`` maps an element to its canonical representative,
and ``to_univ`` reads a reduced element in the universal ring's basis
{<1>, h, <2>}.  The rules h*<g> = h and h*h = 2h, which the closed forms
rely on, therefore follow from the relation here instead of being built
in.

The raw constructors at the end (``m_a1_raw``, ``gamma_hat_raw``,
``type_a_closed_raw``, ``elevator_square_closed_raw``) rebuild the local
factors symbol by symbol: an oracle for their closed forms, which the
identity suite checks for every m up to 60.  The count path never
imports this module.
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

    @classmethod
    def of_int(cls, carrier: SquareClassCarrier, n: int, coeff: int = 1) -> "GroupRingElement":
        return cls(carrier, {carrier.class_of_int(n): coeff})

    @classmethod
    def h(cls, carrier: SquareClassCarrier, coeff: int = 1) -> "GroupRingElement":
        """coeff copies of the hyperbolic plane h = <1> + <-1>."""
        return cls(carrier, {0: coeff, 1: coeff})

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


def hyperbolic_reduce(e: GroupRingElement) -> GroupRingElement:
    """Canonical representative of e modulo <g> + <-g> = <1> + <-1>.

    Each <-g> with g != 1 is rewritten as <1> + <-1> - <g>, so the result
    is supported on <-1> and the classes without the -1 bit.  These
    relations span an ideal, so equal classes reduce to equal elements.
    """
    out = {0: 0, 1: 0}
    for mask, c in e.coeffs.items():
        if mask & 1 and mask != 1:
            out[0] += c
            out[1] += c
            mask, c = mask ^ 1, -c
        out[mask] = out.get(mask, 0) + c
    return GroupRingElement(e.carrier, out)


def to_univ(e: GroupRingElement) -> UnivElement:
    """Read a reduced element as c1<1> + ch h + c2<2>, with h = <1> + <-1>.

    Raises if any other class is left.
    """
    two_bit = e.carrier.bit("2")
    extra = set(e.coeffs) - {0, 1, two_bit}
    if extra:
        names = ", ".join(e.carrier.monomial_name(m) for m in sorted(extra))
        raise ValueError(f"support outside the universal span: {names}")
    ch = e.coeffs.get(1, 0)
    return UnivElement(e.coeffs.get(0, 0) - ch, ch, e.coeffs.get(two_bit, 0))


# ---------------------------------------------------------------------------
# Raw symbol-by-symbol constructions
# ---------------------------------------------------------------------------


def carrier_for(max_m: int, formal: tuple[str, ...] = ()) -> SquareClassCarrier:
    """Carrier large enough for every symbol appearing up to weight max_m."""
    return SquareClassCarrier(odd_primes_up_to(max(max_m, 3)), formal)


def m_a1_raw(m: int, carrier: SquareClassCarrier) -> GroupRingElement:
    """The rank-m class counting an m-fold cover: <m> + ((m-1)//2) h for
    odd m, (m//2) h for even m."""
    if m < 1:
        raise ValueError("weight must be positive")
    if m % 2:
        return GroupRingElement.of_int(carrier, m) + GroupRingElement.h(carrier, (m - 1) // 2)
    return GroupRingElement.h(carrier, m // 2)


def gamma_hat_raw(
    m: int, carrier: SquareClassCarrier, d_symbol: str | None = None
) -> GroupRingElement:
    """Vertex correction factor of weight m with parameter square class d.

    ``d_symbol`` names a formal generator of the carrier standing for d;
    None means d = 1.  Rank is m in every case.
    """
    if m < 1:
        raise ValueError("weight must be positive")
    dbit = carrier.bit(d_symbol) if d_symbol is not None else 0

    def sym(n: int, extra_bit: int = 0, coeff: int = 1) -> GroupRingElement:
        return GroupRingElement.symbol(carrier, carrier.class_of_int(n) ^ extra_bit, coeff)

    if m % 2:
        c = (m - 1) // 2
        return sym(m) + sym(2 * m, 0, c) + sym(-2 * m, dbit, c)
    if m % 4 == 0:
        c = m // 4
        return sym(2 * m, 0, c) + sym(-2 * m, dbit, c) + GroupRingElement.h(carrier, c)
    c = (m - 2) // 4
    return (
        sym(1)
        + sym(-1, dbit)
        + sym(2 * m, 0, c)
        + sym(-2 * m, dbit, c)
        + GroupRingElement.h(carrier, c)
    )


def type_a_closed_raw(
    m: int, carrier: SquareClassCarrier, d_symbol: str | None = None
) -> GroupRingElement:
    """Closed form of gamma_hat * m_a1 stated directly in the carrier."""
    if m % 2 == 0:
        return GroupRingElement.h(carrier, m * m // 2)
    dbit = carrier.bit(d_symbol) if d_symbol is not None else 0
    c = (m - 1) // 2
    two = carrier.bit("2")
    out = GroupRingElement.symbol(carrier, 0)
    out = out + GroupRingElement.symbol(carrier, two, c)
    out = out + GroupRingElement.symbol(carrier, 1 ^ two ^ dbit, c)
    return out + GroupRingElement.h(carrier, m * (m - 1) // 2)


def elevator_square_closed_raw(m: int, carrier: SquareClassCarrier) -> GroupRingElement:
    if m % 2:
        return GroupRingElement.symbol(carrier, 0) + GroupRingElement.h(carrier, (m * m - 1) // 2)
    return GroupRingElement.h(carrier, m * m // 2)
