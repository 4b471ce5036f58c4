"""Polynomials over F_p, and the rational-root finder built on them.

A polynomial over F_p is a sequence of ints, constant first.  Every
operation takes any such sequence and returns a trimmed list (no trailing
zeros; the zero polynomial is []) with entries in [0, p).  `poly_mod`
alone keeps one residue per input coefficient, so callers can see a
leading coefficient that vanishes mod p.  `mul` is the integer product
`polys.mul_coeffs` reduced mod p.

`int_rational_roots` finds the rational roots of an integer polynomial,
given as its coefficient list, by Hensel lifting: with the content divided
out, a sieve first rejects a polynomial that has no root modulo one of a
few primes not dividing its lead; the roots of the rest come modulo the
least prime l at which the squarefree part stays squarefree, Newton-lifted
to l^k > 2 |a_0| |a_n| and recovered by rational reconstruction (von zur
Gathen and Gerhard, Modern Computer Algebra, the chapters on Newton
iteration and Hensel lifting, and on rational reconstruction).  The content
split and the exact division that gives the squarefree part are the
integer kernel of `polys` (`primitive`, `exact_quotient`).
`rational_roots` is its entry for a `Poly` over Q.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InternalCheckError
from .polys import Poly, clear_denominators, exact_quotient, mul_coeffs, primitive
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
    return _trim([c % p for c in mul_coeffs(a, b)])


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


def _primitive_gcd(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """gcd over Z of two nonzero integer polynomials, primitive with positive
    lead, by the primitive pseudo-remainder sequence."""
    while True:
        b = primitive(b)[1]
        r, lead, d = list(a), b[-1], len(b) - 1
        while len(r) > d:
            c = r.pop()
            r = [lead * x for x in r]
            for j, bj in enumerate(b[:-1], len(r) - d):
                r[j] -= c * bj
            while r and r[-1] == 0:
                r.pop()
        if not r:
            return b
        a, b = b, r


# Primes for the root sieve; the first _SIEVE_COUNT of them that divide
# neither the lead nor the constant term are tried.
_SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_SIEVE_COUNT = 8


def _has_root_mod(ints: Sequence[int], ell: int) -> bool:
    # Horner inline, one reduction per value: the residues are small, and
    # this runs for every residue of every sieve prime of every target
    top_first = [c % ell for c in reversed(ints)]
    for x in range(ell):
        acc = 0
        for c in top_first:
            acc = acc * x + c
        if acc % ell == 0:
            return True
    return False


def _sieved_out(ints: Sequence[int]) -> bool:
    """Whether some sieve prime not dividing the lead sees no root: then the
    polynomial has no rational root.  A prime dividing the constant term
    always sees the root 0, so it is not tried."""
    usable = (ell for ell in _SIEVE_PRIMES if ints[-1] % ell and ints[0] % ell)
    return any(
        not _has_root_mod(ints, ell)
        for ell in itertools.islice(usable, _SIEVE_COUNT)
    )


def int_rational_roots(ints: Sequence[int]) -> List[Fraction]:
    """The distinct rational roots of a nonzero integer polynomial, given as
    its coefficient list (constant first), ascending.

    After x^k is stripped and the content divided out, a root a/b in lowest
    terms has a | a_0 and b | a_n, so for a prime l not dividing a_n, a b^-1
    is a root mod l: a polynomial without a root mod one of a few such
    primes has no rational root besides 0.  For the rest, the squarefree
    part is f / gcd(f, f') over Z, the gcd by primitive pseudo-remainders
    and the division checked exact.  Modulo a prime l not dividing its lead
    at which that part stays squarefree, every root is simple, so its
    residue lifts uniquely to l^k > 2 |a_0| |a_n|, and rational
    reconstruction returns a/b.  Each candidate is checked exactly:
    sum_i a_i a^i b^(n-i) = 0.
    """
    if not any(ints):
        raise ValueError("zero polynomial has every root")
    low = next(i for i, c in enumerate(ints) if c)
    top = max(i for i, c in enumerate(ints) if c)
    roots = {Fraction(0)} if low else set()
    ints = primitive(ints[low : top + 1])[1]
    if len(ints) == 1 or _sieved_out(ints):
        return sorted(roots)
    deriv = [i * c for i, c in enumerate(ints)][1:]
    rows = exact_quotient([[c] for c in ints], _primitive_gcd(ints, deriv))
    if rows is None:
        raise InternalCheckError("squarefree part division left a remainder")
    ints = [c for c, in rows]
    deriv = [i * c for i, c in enumerate(ints)][1:]
    n = len(ints) - 1
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
        if cand is None:
            continue
        a, b = cand.numerator, cand.denominator
        if sum(c * a**i * b ** (n - i) for i, c in enumerate(ints)) == 0:
            roots.add(cand)
    return sorted(roots)


def rational_roots(f: Poly) -> List[Fraction]:
    """The distinct rational roots of a nonzero polynomial over Q, ascending:
    `int_rational_roots` of f cleared to integers."""
    if f.is_zero():
        raise ValueError("zero polynomial has every root")
    return int_rational_roots(clear_denominators(f)[0])
