"""Small exact number-theory helpers shared across modules."""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def odd_primes_up_to(bound: int) -> tuple[int, ...]:
    return tuple(p for p in range(3, bound + 1) if is_prime(p))


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p**k, or raise if q is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, k
        p += 1
    return q, 1


def legendre_is_square(a: int, p: int) -> bool:
    """Whether the unit a is a square modulo the odd prime p."""
    a %= p
    if a == 0:
        raise ValueError("not a unit")
    return pow(a, (p - 1) // 2, p) == 1


def squarefree_split(n: int) -> tuple[int, int]:
    """Write the nonzero integer n as sign*squarefree times a square.

    Returns (squarefree_part_with_sign, square_root_of_the_square_part).
    """
    if n == 0:
        raise ValueError("zero has no square class")
    sign = -1 if n < 0 else 1
    n = abs(n)
    core = 1
    root = 1
    d = 2
    while d * d <= n:
        exp = 0
        while n % d == 0:
            n //= d
            exp += 1
        if exp:
            root *= d ** (exp // 2)
            if exp % 2:
                core *= d
        d += 1
    core *= n
    return sign * core, root
