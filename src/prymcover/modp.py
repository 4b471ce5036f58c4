"""Polynomials over F_p, and the rational-root finder built on them.

A polynomial over F_p is a sequence of ints, constant first.  Every
operation takes any such sequence and returns a trimmed list (no trailing
zeros; the zero polynomial is []) with entries in [0, p).  `poly_mod`
alone keeps one residue per input coefficient, so callers can see a
leading coefficient that vanishes mod p.

`rational_roots` finds the rational roots of a polynomial over Q by
Hensel lifting: roots modulo the least prime l at which the squarefree
part stays squarefree, Newton-lifted to l^k > 2 |a_0| |a_n| and recovered
by rational reconstruction (von zur Gathen and Gerhard, Modern Computer
Algebra, the chapters on Newton iteration and Hensel lifting, and on
rational reconstruction).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InternalCheckError
from .polys import Poly, clear_denominators, poly_gcd
from .scalars import Rat, as_rational, is_prime

Residues = Sequence[int]


def rat_mod(r: Rat, p: int) -> int:
    """Image of a rational in F_p; ValueError when p divides its denominator."""
    r = as_rational(r)
    if r.denominator % p == 0:
        raise ValueError(f"{r} is not p-integral at {p}")
    return r.numerator * pow(r.denominator, -1, p) % p


def poly_mod(f: Poly, p: int) -> Tuple[int, ...]:
    """Residue of every coefficient of f, untrimmed; ValueError when one is
    not p-integral."""
    return tuple(rat_mod(c, p) for c in f.coeffs)


def _trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def sub(a: Residues, b: Residues, p: int) -> List[int]:
    out = [c % p for c in a] + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def mul(a: Residues, b: Residues, p: int) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim([c % p for c in out])


def rem(a: Residues, m: Residues, p: int) -> List[int]:
    """a mod m; m must have a nonzero leading coefficient mod p."""
    a = _trim([c % p for c in a])
    d = len(m) - 1
    inv = pow(m[-1], -1, p)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] * inv % p
        if c:
            for j in range(d):
                a[i - d + j] = (a[i - d + j] - c * m[j]) % p
        a[i] = 0
    return _trim(a)


def mulmod(a: Residues, b: Residues, m: Residues, p: int) -> List[int]:
    return rem(mul(a, b, p), m, p)


def powmod(a: Residues, e: int, m: Residues, p: int) -> List[int]:
    result = rem([1], m, p)
    base = rem(a, m, p)
    while e:
        if e & 1:
            result = mulmod(result, base, m, p)
        e >>= 1
        if e:
            base = mulmod(base, base, m, p)
    return result


def gcd(a: Residues, b: Residues, p: int) -> List[int]:
    """Monic gcd; gcd(0, 0) = []."""
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, rem(a, b, p)
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def is_squarefree(a: Residues, p: int) -> bool:
    """Whether a is nonzero with gcd(a, a') = 1 over F_p."""
    a = _trim([c % p for c in a])
    return bool(a) and gcd(a, [i * c for i, c in enumerate(a)][1:], p) == [1]


def _rat_reconstruct(
    residue: int, modulus: int, num_bound: int, den_bound: int
) -> Optional[Fraction]:
    """The n/d with |n| <= num_bound, 0 < d <= den_bound and n = d * residue
    mod modulus, if any; unique when modulus > 2 num_bound den_bound."""
    r0, r1 = modulus, residue % modulus
    t0, t1 = 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0:
        return None
    num, den = r1, t1
    if den < 0:
        num, den = -num, -den
    if den > den_bound or math.gcd(num, den) != 1:
        return None
    return Fraction(num, den)


def _eval(ints: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = (acc * x + c) % m
    return acc


def rational_roots(f: Poly) -> List[Fraction]:
    """The distinct rational roots of a nonzero polynomial over Q, ascending.

    A root a/b in lowest terms of the squarefree part, with integer
    coefficients a_0..a_n, has a | a_0 and b | a_n.  Modulo a prime l not
    dividing a_n at which that part stays squarefree, every root is simple,
    so its residue lifts uniquely to l^k > 2 |a_0| |a_n|, and rational
    reconstruction returns a/b.  Each candidate is checked by exact
    evaluation.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has every root")
    roots = set()
    low = 0
    while f.coeffs[low] == 0:
        low += 1
    if low:
        roots.add(Fraction(0))
        f = Poly(f.coeffs[low:])
    if f.degree >= 1:
        sqf, r = divmod(f, poly_gcd(f, f.derivative()))
        if not r.is_zero():
            raise InternalCheckError("squarefree part division left a remainder")
        ints, _ = clear_denominators(sqf)
        deriv = [i * c for i, c in enumerate(ints)][1:]
        ell = 2
        while ints[-1] % ell == 0 or not is_squarefree(ints, ell):
            ell += 1
            while not is_prime(ell):
                ell += 1
        num_bound, den_bound = abs(ints[0]), ints[-1]
        bound = 2 * num_bound * den_bound
        for x in range(ell):
            if _eval(ints, x, ell):
                continue
            m = ell
            while m <= bound:
                m *= m
                x = (x - _eval(ints, x, m) * pow(_eval(deriv, x, m), -1, m)) % m
            cand = _rat_reconstruct(x, m, num_bound, den_bound)
            if cand is not None and sqf(cand) == 0:
                roots.add(cand)
    return sorted(roots)
