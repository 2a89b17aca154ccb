from __future__ import annotations

from normlab.arith import is_prime, p_part, p_valuation

PRIMES = [p for p in range(2, 60) if all(p % d for d in range(2, p))]


def test_is_prime_matches_trial_division():
    for n in range(-2, 5000):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, n))), n


def test_p_part_and_valuation_match_brute_force():
    # every power of p divides 0, so 0 has no p-part and is left out
    for p in PRIMES:
        for n in range(-2, 5000):
            if n == 0:
                continue
            k = max(k for k in range(abs(n).bit_length() + 1) if n % p**k == 0)
            assert p_valuation(n, p) == k, (n, p)
            assert p_part(n, p) == p**k, (n, p)
