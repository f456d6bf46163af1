"""Permutation families of Z_n.

Families (all 0-indexed on Z_n = {0, ..., n-1}):

    psi(n, k)          s -> k*s mod n, gcd(k, n) = 1
    lambda_inv(p, a)   0 -> 0, s -> a*s^{-1} mod p
    eta_power(p, a, k) s -> a*s^k mod p, gcd(k, p-1) = 1, 2 <= k < p-1
    rho_exp(p, a, tau) 0 -> 0, s -> a*tau^s mod p, tau a primitive root
    sos_perm(n, alpha) rank of {alpha*s} among {alpha*1..alpha*n}, shifted
                       to 0-indexing (exact comparisons, no floats)
    bit_reversal(n)    reverse the m-bit binary expansion, n = 2^m
    random_perm(n, s)  Fisher-Yates driven by SplitMix64, identical
                       output for identical (n, seed) on every platform

plus identity_perm, reversal_perm and invert.

A Permutation is immutable and carries provenance: a family tag and the
parameters that built it, so a result file can always be traced back.
Text form (to_text/from_text) is three lines: n, the space-separated
image, and a '# family=... key=value...' comment; round-trips are
byte-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cfrac import _convergents_upto, cf_of_quadratic
from .errors import (AmbiguousOrderError, InvalidGeneratorError,
                     NotAPermutationError, NotAUnitError, QrpermError)
from .modular import as_prime, as_unit, mod_inv, multiplicative_order
from .quadirr import (QuadraticIrrational, alpha_label, floor_multiple,
                      frac_compare)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Permutation:
    n: int
    image: tuple[int, ...]
    family: str = "custom"
    params: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise QrpermError("n must be >= 1")
        if len(self.image) != self.n:
            raise NotAPermutationError(
                f"image has {len(self.image)} entries, expected {self.n}")
        seen = bytearray(self.n)
        for v in self.image:
            if not 0 <= v < self.n or seen[v]:
                raise NotAPermutationError(f"image is not a bijection at {v}")
            seen[v] = 1

    def __call__(self, s: int) -> int:
        return self.image[s]

    def param_dict(self) -> dict[str, str]:
        return dict(self.params)


def _params(**kw) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in kw.items()))


def to_text(sigma: Permutation) -> str:
    tokens = [f"family={sigma.family}"] + [f"{k}={v}" for k, v in sigma.params]
    return "{}\n{}\n# {}\n".format(
        sigma.n, " ".join(str(v) for v in sigma.image), " ".join(tokens))


def from_text(text: str) -> Permutation:
    lines = text.splitlines()
    if len(lines) < 3:
        raise QrpermError("expected three lines: n, image, provenance")
    try:
        n = int(lines[0].strip())
        image = tuple(int(v) for v in lines[1].split())
    except ValueError as exc:
        raise QrpermError(f"n and image must be integers: {exc}") from None
    if not lines[2].startswith("# "):
        raise QrpermError("third line must be a '# ' provenance comment")
    family = "custom"
    params = []
    for token in lines[2][2:].split():
        key, _, value = token.partition("=")
        if key == "family":
            family = value
        else:
            params.append((key, value))
    return Permutation(n, image, family, tuple(sorted(params)))


def identity_perm(n: int) -> Permutation:
    return Permutation(n, tuple(range(n)), "identity", _params(n=n))


def reversal_perm(n: int) -> Permutation:
    return Permutation(n, tuple(range(n - 1, -1, -1)), "reversal",
                       _params(n=n))


def psi(n: int, k: int) -> Permutation:
    """Linear permutation s -> k*s mod n."""
    if n < 1:
        raise QrpermError("n must be >= 1")
    g = math.gcd(k % n, n) if n > 1 else 1
    if g != 1:
        raise NotAUnitError(k, n, g)
    k %= n
    return Permutation(n, tuple(k * s % n for s in range(n)), "psi",
                       _params(n=n, k=k))


def lambda_inv(p, a: int) -> Permutation:
    """Twisted inversion: 0 -> 0, s -> a*s^{-1} mod p."""
    p = as_prime(p)
    a = as_unit(a, p)
    image = [0] * p
    for s in range(1, p):
        image[s] = a * mod_inv(s, p) % p
    return Permutation(p, tuple(image), "lambda", _params(p=p, a=a))


def eta_power(p, a: int, k: int) -> Permutation:
    """Power map s -> a*s^k mod p; needs gcd(k, p-1) = 1 and 2 <= k < p-1."""
    p = as_prime(p)
    a = as_unit(a, p)
    if k == 1:
        raise QrpermError("k = 1 is the linear family; use psi")
    if not 2 <= k < p - 1:
        raise QrpermError(f"exponent k = {k} outside [2, {p - 1})")
    g = math.gcd(k, p - 1)
    if g != 1:
        raise NotAPermutationError(
            f"s -> s^{k} is not a bijection mod {p}: gcd({k}, {p - 1}) = {g}")
    return Permutation(p, tuple(a * pow(s, k, p) % p for s in range(p)),
                       "eta", _params(p=p, a=a, k=k))


def rho_exp(p, a: int, tau: int) -> Permutation:
    """Exponential map: 0 -> 0, s -> a*tau^s mod p, tau a primitive root."""
    p = as_prime(p)
    a = as_unit(a, p)
    tau = as_unit(tau, p)
    order = multiplicative_order(tau, p)
    if order != p - 1:
        raise InvalidGeneratorError(tau, p, order)
    image = [0] * p
    cur = a
    for s in range(1, p):
        cur = cur * tau % p
        image[s] = cur
    return Permutation(p, tuple(image), "rho", _params(p=p, a=a, tau=tau))


def sos_perm(n: int, alpha, tie_break: bool = False) -> Permutation:
    """Three-distance ranking: position s-1 gets the 0-based rank of
    {alpha*s} among {alpha*1}, ..., {alpha*n}.

    alpha may be a QuadraticIrrational (a certified three-distance
    walk, see below), Fraction, or int.  Rational alphas can tie;
    without tie_break that raises AmbiguousOrderError naming a
    colliding pair, with tie_break=True the smaller s ranks first.
    """
    if n < 1:
        raise QrpermError("n must be >= 1")
    if isinstance(alpha, QuadraticIrrational):
        order = _sorted_exact_irrational(n, alpha)
    else:
        alpha = Fraction(alpha)
        num, den = alpha.numerator, alpha.denominator
        keyed = sorted(range(1, n + 1), key=lambda s: (num * s % den, s))
        if not tie_break:
            for u, v in zip(keyed, keyed[1:]):
                if num * u % den == num * v % den:
                    raise AmbiguousOrderError(
                        (u, v), f": {{alpha*s}} equal for alpha={alpha}")
        order = keyed
    image = [0] * n
    for rank, s in enumerate(order):
        image[s - 1] = rank
    return Permutation(n, tuple(image), "sos",
                       _params(n=n, alpha=alpha_label(alpha)))


def _sorted_exact_irrational(n: int, alpha: QuadraticIrrational) -> list[int]:
    """1..n sorted by {s*alpha}: Sos (1958), Swierczkowski (1959).

    p1, pN = argmin, argmax of {q*alpha} over q <= n are the last
    convergent denominator q_k <= n and the largest q_{k-1} + j*q_k <= n,
    ordered by one frac_compare; the order is the walk from p1 by
    s + p1 if s <= n - p1, s - pN if s > pN, else s + p1 - pN.  A step
    ascends if its floor increment is its kind's floor(p1*alpha),
    -floor(pN*alpha) - 1 or their sum, and is never below that.  With
    p1 + pN > n a walk over all of 1..n ends at pN and takes n - p1,
    n - pN and p1 + pN - n - 1 steps of the kinds; its total excess
    p1*(floor(pN*alpha) + 1) - pN*floor(p1*alpha) - 1 must be 0.
    """
    dens = [0, 1] + [q for _, _, q in
                     _convergents_upto(cf_of_quadratic(alpha), n)]
    q_prev, q = dens[-2:]
    semi = q_prev + (n - q_prev) // q * q
    p1, pn = (q, semi) if frac_compare(alpha, q, semi) < 0 else (semi, q)
    order = [p1]
    for _ in range(n - 1):
        s = order[-1]
        order.append(s + p1 if s <= n - p1 else
                     s - pn if s > pn else s + p1 - pn)
    if (len(set(order)) != n or p1 + pn <= n
            or p1 * (floor_multiple(alpha, pn) + 1)
            - pn * floor_multiple(alpha, p1) != 1):
        raise QrpermError(f"alpha={alpha_label(alpha)}, n={n}: walk from "
                          f"p1={p1} to pN={pn} failed its certificate")
    return order


def bit_reversal(n: int) -> Permutation:
    """Bit-reversal permutation; n must be a power of two."""
    if n < 1 or n & (n - 1):
        raise QrpermError(f"n = {n} is not a power of two")
    m = n.bit_length() - 1
    image = [0] * n
    for s in range(n):
        r = 0
        x = s
        for _ in range(m):
            r = (r << 1) | (x & 1)
            x >>= 1
        image[s] = r
    return Permutation(n, tuple(image), "bitrev", _params(n=n))


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def random_perm(n: int, seed: int) -> Permutation:
    """Seeded uniform permutation: SplitMix64 + Fisher-Yates.

    The generator and the rejection-sampled bounded draw are pinned, so
    identical (n, seed) gives an identical permutation everywhere.
    """
    image = list(range(n))
    state = seed & _MASK64
    for i in range(n - 1, 0, -1):
        bound = i + 1
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            state, r = _splitmix64(state)
            if r < limit:
                break
        j = r % bound
        image[i], image[j] = image[j], image[i]
    return Permutation(n, tuple(image), "random", _params(n=n, seed=seed))


def invert(sigma: Permutation) -> Permutation:
    image = [0] * sigma.n
    for s, v in enumerate(sigma.image):
        image[v] = s
    return Permutation(sigma.n, tuple(image), f"inv:{sigma.family}",
                       sigma.params)
