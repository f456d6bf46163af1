"""Deterministic permutation corpus shared by tests and scan demos.

One place decides which family members count as "the corpus" so the
acceptance checks, the property tests, and the CLI demos all exercise
the same population: every family at every prime up to the size bound
(with a fixed small parameter set per family), Sos rankings for the
standard irrationals, bit reversals at powers of two, identity and
reversal anchors, and a block of seeded random permutations.
"""

from __future__ import annotations

import math

from .families import (Permutation, bit_reversal, eta_power, identity_perm,
                       lambda_inv, psi, random_perm, reversal_perm, rho_exp,
                       sos_perm)
from .modular import find_primitive_root, is_prime
from .quadirr import golden, sqrt_irr


def primes_in(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def corpus_perms(max_n: int = 127,
                 include_random: bool = True) -> list[Permutation]:
    out: list[Permutation] = []
    for p in primes_in(5, max_n):
        ks = sorted({2, 3, (p + 1) // 2, p - 2})
        out.extend(psi(p, k) for k in ks if k % p)
        out.extend(lambda_inv(p, a) for a in (1, 2))
        etas = [k for k in range(2, p - 1) if math.gcd(k, p - 1) == 1]
        out.extend(eta_power(p, 1, k) for k in etas[:2])
        out.append(rho_exp(p, 1, find_primitive_root(p)))
    sos_sizes = [n for n in (16, 32, 64, 100) if n <= max_n]
    if max_n >= 127:
        sos_sizes.append(min(max_n, 127 if max_n < 256 else max_n))
    for n in sos_sizes:
        for alpha in (golden(), sqrt_irr(2), sqrt_irr(3)):
            out.append(sos_perm(n, alpha))
    two = 8
    while two <= max_n:
        out.append(bit_reversal(two))
        two *= 2
    for n in (10, min(64, max_n)):
        out.append(identity_perm(n))
        out.append(reversal_perm(n))
    if include_random:
        out.extend(random_perm(100, seed) for seed in range(1000, 1050))
    return out
