"""Small integer helpers: primality, factorization, p-parts."""

from __future__ import annotations

from .errors import InvalidParameter


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}; {} for n < 2."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primes_dividing(n: int) -> list[int]:
    return sorted(factorize(n))


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n >= 1."""
    return p ** p_valuation(n, p)


def p_valuation(n: int, p: int) -> int:
    """Exponent of the largest power of p dividing n; InvalidParameter
    unless n >= 1 and p >= 2, since every power of p divides 0 and every
    power of 1 divides n."""
    if n < 1 or p < 2:
        raise InvalidParameter(f"p-valuation needs n >= 1 and p >= 2, got n={n}, p={p}")
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def is_prime_power(n: int) -> bool:
    return n > 1 and len(factorize(n)) == 1


def smallest_primitive_root(p: int) -> int:
    """Smallest primitive root modulo an odd prime p."""
    phi = p - 1
    factors = primes_dividing(phi)
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root found for {p}")


def psl2_parameter(order: int) -> int | None:
    """The prime p with p*(p*p-1)/2 == order, if one exists."""
    p = 2
    while p * (p * p - 1) // 2 <= order:
        if is_prime(p) and p * (p * p - 1) // 2 == order:
            return p
        p += 1
    return None
