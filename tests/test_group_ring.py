"""Square-class group ring and its hyperbolic reduction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwfloor.group_ring import (
    GroupRingElement,
    SquareClassCarrier,
    hyperbolic_reduce,
    to_univ,
)
from gwfloor.univ import UnivElement


@pytest.fixture
def carrier():
    return SquareClassCarrier((3, 5), ("d",))


class TestCarrier:
    def test_generator_order(self, carrier):
        assert carrier.generators == ("-1", "2", "3", "5", "d")
        assert carrier.bit("-1") == 1
        assert carrier.bit("2") == 2
        assert carrier.bit("d") == 16

    def test_class_of_int(self, carrier):
        assert carrier.class_of_int(1) == 0
        assert carrier.class_of_int(4) == 0
        assert carrier.class_of_int(-1) == 1
        assert carrier.class_of_int(2) == 2
        assert carrier.class_of_int(8) == 2
        assert carrier.class_of_int(-30) == 1 | 2 | 4 | 8
        assert carrier.class_of_int(45) == 8  # 45 = 9 * 5

    def test_class_of_int_missing_prime(self, carrier):
        with pytest.raises(ValueError):
            carrier.class_of_int(7)

    def test_monomial_name(self, carrier):
        assert carrier.monomial_name(0) == "<1>"
        assert carrier.monomial_name(3) == "<-1*2>"

    def test_duplicate_generators_rejected(self):
        with pytest.raises(ValueError):
            SquareClassCarrier((3,), ("3",))


class TestGroupRing:
    def test_xor_multiplication(self, carrier):
        a = GroupRingElement.symbol(carrier, carrier.class_of_int(2))
        b = GroupRingElement.symbol(carrier, carrier.class_of_int(-3))
        assert a * b == GroupRingElement.symbol(carrier, carrier.class_of_int(-6))
        assert a * a == GroupRingElement.symbol(carrier, 0)

    def test_carrier_mismatch(self, carrier):
        other = SquareClassCarrier((3,), ())
        with pytest.raises(ValueError):
            GroupRingElement.symbol(carrier, 0) + GroupRingElement.symbol(other, 0)


class TestHypUniv:
    """Hyperbolic reduction and the projection onto the universal ring."""

    def test_symbol_reduction(self, carrier):
        minus_one = GroupRingElement.of_int(carrier, -1)
        assert hyperbolic_reduce(minus_one) == minus_one
        minus_three = GroupRingElement.of_int(carrier, -3, 2)
        expected = GroupRingElement.h(carrier, 2) - GroupRingElement.of_int(carrier, 3, 2)
        assert hyperbolic_reduce(minus_three) == expected

    def test_g_plus_minus_g_is_h(self, carrier):
        for n in (1, 2, 3, 5, 6, 10, 15):
            total = GroupRingElement.of_int(carrier, n) + GroupRingElement.of_int(carrier, -n)
            assert hyperbolic_reduce(total) == GroupRingElement.h(carrier)

    def test_h_absorbs(self, carrier):
        # Derived from the relation: the product itself is a plain convolution.
        h = GroupRingElement.h(carrier)
        for n in (1, -1, 2, 3, -15):
            product = h * GroupRingElement.of_int(carrier, n)
            assert hyperbolic_reduce(product) == h
        assert h * h == 2 * h
        assert hyperbolic_reduce(h * GroupRingElement.symbol(carrier, carrier.bit("d"))) == h

    def test_to_univ(self, carrier):
        e = (
            GroupRingElement.of_int(carrier, 1, 3)
            + GroupRingElement.of_int(carrier, 2, 5)
            + GroupRingElement.h(carrier, 2)
        )
        assert to_univ(hyperbolic_reduce(e)) == UnivElement(3, 2, 5)
        assert to_univ(hyperbolic_reduce(GroupRingElement.of_int(carrier, -2))) == UnivElement(0, 1, -1)

    def test_to_univ_rejects_other_support(self, carrier):
        with pytest.raises(ValueError, match="support outside the universal span"):
            to_univ(GroupRingElement.of_int(carrier, 3))

    @given(st.data())
    @settings(max_examples=60)
    def test_reduction_is_ring_map(self, data):
        """Reduction is well defined on the quotient: reducing the factors
        first changes neither a product nor a sum, it is idempotent, and it
        kills every multiple of a relation <g> + <-g> - h."""
        carrier = SquareClassCarrier((3,), ())
        masks = st.integers(0, (1 << carrier.size) - 1)
        coeffs = st.integers(-4, 4)
        elems = st.dictionaries(masks, coeffs, max_size=4).map(
            lambda d: GroupRingElement(carrier, d)
        )
        a = data.draw(elems)
        b = data.draw(elems)
        ra, rb = hyperbolic_reduce(a), hyperbolic_reduce(b)
        assert hyperbolic_reduce(a * b) == hyperbolic_reduce(ra * rb)
        assert hyperbolic_reduce(a + b) == hyperbolic_reduce(ra + rb)
        assert hyperbolic_reduce(ra) == ra
        g = data.draw(masks)
        relation = (
            GroupRingElement.symbol(carrier, g)
            + GroupRingElement.symbol(carrier, g ^ 1)
            - GroupRingElement.h(carrier)
        )
        assert hyperbolic_reduce(a + relation * b) == ra
