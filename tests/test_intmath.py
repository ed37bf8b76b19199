"""Exact number-theory helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwfloor.intmath import (
    factor_prime_power,
    is_prime,
    legendre_is_square,
    odd_primes_up_to,
    squarefree_split,
)


def test_is_prime_small():
    primes = [n for n in range(2, 40) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_odd_primes_up_to():
    assert odd_primes_up_to(13) == (3, 5, 7, 11, 13)
    assert odd_primes_up_to(2) == ()


def test_factor_prime_power():
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(125) == (5, 3)
    with pytest.raises(ValueError):
        factor_prime_power(12)
    with pytest.raises(ValueError):
        factor_prime_power(1)


def test_legendre_is_square():
    assert {a for a in range(1, 7) if legendre_is_square(a, 7)} == {1, 2, 4}
    assert legendre_is_square(-1, 5)
    assert not legendre_is_square(-1, 7)
    with pytest.raises(ValueError):
        legendre_is_square(14, 7)


def test_squarefree_split_examples():
    assert squarefree_split(18) == (2, 3)
    assert squarefree_split(-50) == (-2, 5)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(-1) == (-1, 1)
    with pytest.raises(ValueError):
        squarefree_split(0)


@given(st.integers(min_value=-10_000, max_value=10_000).filter(lambda n: n != 0))
def test_squarefree_split_reconstructs(n):
    core, root = squarefree_split(n)
    assert core * root * root == n
    # The core is squarefree: no prime square divides it.
    m = abs(core)
    d = 2
    while d * d <= m:
        assert m % (d * d) != 0
        d += 1
