"""Exact modular arithmetic over machine-word-sized integers.

Everything here is integer-exact.  The operations are the primitives the
permutation families and exponential-sum kernels are built from:

    mod_inv(a, m)             extended Euclid; NotAUnitError carries the gcd
    factorize(n)              trial division, {prime: exponent}
    multiplicative_order(x, p)  least t >= 1 with x^t = 1 (mod p)
    find_primitive_root(p)    smallest generator of Z_p^*
    is_primitive_root(t, p)   t^((p-1)/q) != 1 for every prime q | p-1
    as_prime(p)               the one primality gate of prime moduli
    as_unit(x, p)             x mod p, refused when it is 0 mod the prime p

Modular powers are Python's three-argument pow.

Primality certification is a deterministic Miller-Rabin with the witness
set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}, which is exact for
every modulus below 3.3 * 10^24 and therefore for the full 64-bit range
this package targets.
"""

from __future__ import annotations

import math

from .errors import InvalidModulusError, NotAUnitError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def as_prime(p) -> int:
    """p as an int, certified prime; InvalidModulusError otherwise."""
    p = int(p)
    if not is_prime(p):
        raise InvalidModulusError(f"{p} is not prime")
    return p


def as_unit(x: int, p: int) -> int:
    """x mod p for a prime p; NotAUnitError(0, p, p) when p divides x."""
    x %= p
    if x == 0:
        raise NotAUnitError(x, p, p)
    return x


def mod_inv(a: int, m: int) -> int:
    """Inverse of a mod m via extended Euclid; raises if gcd(a, m) != 1."""
    if m == 0:
        raise InvalidModulusError("modulus must be nonzero")
    g = math.gcd(a, m)
    if g != 1:
        raise NotAUnitError(a, m, g)
    return pow(a, -1, m)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
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


def multiplicative_order(x: int, p) -> int:
    """Least t >= 1 with x^t = 1 mod p, for prime p and unit x.

    Starts from t = p - 1 and strips prime factors while the power
    stays 1, so the cost is O(log^2 p) multiplies rather than a walk.
    """
    p = as_prime(p)
    x = as_unit(x, p)
    t = p - 1
    for q in factorize(p - 1):
        while t % q == 0 and pow(x, t // q, p) == 1:
            t //= q
    return t


def find_primitive_root(p) -> int:
    """Smallest primitive root mod p (p prime).  For p = 2 this is 1."""
    p = as_prime(p)
    if p == 2:
        return 1
    cofactors = [(p - 1) // q for q in factorize(p - 1)]
    for tau in range(2, p):
        if all(pow(tau, c, p) != 1 for c in cofactors):
            return tau
    raise InvalidModulusError(f"no primitive root below {p}")  # unreachable


def is_primitive_root(tau: int, p) -> bool:
    p = as_prime(p)
    tau %= p
    if tau == 0:
        return False
    if p == 2:
        return tau == 1
    return all(pow(tau, (p - 1) // q, p) != 1 for q in factorize(p - 1))

