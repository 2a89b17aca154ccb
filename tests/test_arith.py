from __future__ import annotations

import subprocess
import sys

from normlab.arith import is_prime, p_part, p_valuation

PRIMES = [p for p in range(2, 60) if all(p % d for d in range(2, p))]


def test_is_prime_matches_trial_division():
    for n in range(-2, 5000):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, n))), n


def test_p_part_and_valuation_match_brute_force():
    for p in PRIMES:
        for n in range(1, 5000):
            k = max(k for k in range(n.bit_length() + 1) if n % p**k == 0)
            assert p_valuation(n, p) == k, (n, p)
            assert p_part(n, p) == p**k, (n, p)


def test_p_part_and_valuation_refuse_what_has_no_largest_power(subprocess_env):
    # every power of p divides 0, and every power of 1 divides n, so these
    # once looped for ever; a child interpreter with a deadline shows that
    # each is refused at once
    cases = [(0, 2), (0, 7), (-1, 2), (-12, 3), (5, 1), (5, 0)]
    script = f"""
from normlab.arith import p_part, p_valuation
from normlab.errors import InvalidParameter
for n, p in {cases!r}:
    for f in (p_valuation, p_part):
        try:
            f(n, p)
        except InvalidParameter:
            continue
        raise SystemExit(f"{{f.__name__}}({{n}}, {{p}}) was not refused")
"""
    done = subprocess.run(
        [sys.executable, "-c", script], env=subprocess_env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
