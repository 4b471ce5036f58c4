"""Exact scalar layer: p-adic valuations, certified factorization, and
elements of multi-quadratic fields.

Rationals are `fractions.Fraction` throughout (aliased as `Rat`); the
valuation of zero is the float infinity sentinel `ORD_INFINITY`, which
orders above every integer and absorbs addition, exactly as a valuation
should.  Factoring is trial division by the primes up to
`DEFAULT_FACTOR_BOUND`, and the cofactor left over must pass `is_prime`.
Square roots of non-square rationals live in `MQElem`, whose generator set
is kept canonical (-1, primes, and at worst one certified square-free atom
too large to split), so every element has a unique coordinate
representation and arithmetic never needs a relation check.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple, Union

Rat = Fraction

#: Valuation of zero.
ORD_INFINITY = math.inf

#: Trial-division bound for certified factorizations.
DEFAULT_FACTOR_BOUND = 10**6


class FactorizationError(ValueError):
    """An integer resisted certification within the trial-division bound."""


# Exact below psi_13 = 3317044064679887385961981, the least strong
# pseudoprime to all 13 bases (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin test with the prime bases 2..41: exact below psi_13
    (about 3.3e24); at or above it, True means only a probable prime."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_set(s_primes: Iterable[int]) -> Tuple[int, ...]:
    """A set S of finite primes, checked and returned sorted without repeats."""
    try:
        ps = [operator.index(p) for p in s_primes]
    except TypeError as exc:
        raise ValueError(f"primes must be integers: {exc}") from None
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return tuple(sorted(set(ps)))


def strip_primes(n: int, primes: Iterable[int]) -> int:
    """|n| with every factor of the given primes divided out."""
    n = abs(n)
    for p in primes:
        while n % p == 0:
            n //= p
    return n


@functools.lru_cache(maxsize=None)
def _sieved_primes() -> List[int]:
    """The primes up to DEFAULT_FACTOR_BOUND, sieved on first use, not at import."""
    flags = bytearray([1]) * (DEFAULT_FACTOR_BOUND + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(DEFAULT_FACTOR_BOUND) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return list(itertools.compress(range(DEFAULT_FACTOR_BOUND + 1), flags))


def rat_ord_p(r: Union[Rat, int], p: int) -> Union[int, float]:
    """Exponent of the prime p in the rational r; ord of zero is ORD_INFINITY."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    r = Fraction(r)
    if r == 0:
        return ORD_INFINITY
    ord_ = 0
    num = r.numerator
    while num % p == 0:
        num //= p
        ord_ += 1
    den = r.denominator
    while den % p == 0:
        den //= p
        ord_ -= 1
    return ord_


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, exact for any size."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _perfect_power(n: int) -> Union[Tuple[int, int], None]:
    """Largest k >= 2 with n = r**k, as (r, k); None if n is not a power."""
    for k in range(n.bit_length(), 1, -1):
        r = _iroot(n, k)
        if r > 1 and r**k == n:
            return r, k
    return None


def _trial_divide(n: int) -> Tuple[Dict[int, int], int]:
    """Exponents of the sieved primes in n > 0, and the cofactor left over:
    1, a prime, or a number with no prime factor up to DEFAULT_FACTOR_BOUND."""
    exps: Dict[int, int] = {}
    for p in _sieved_primes():
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            exps[p] = e
    return exps, n


def _cofactor_root(c: int) -> Tuple[int, int, bool]:
    """The cofactor c > 1 as r**k with k maximal, and whether r is prime.
    The common case, a prime c, is tested before any root search."""
    if is_prime(c):
        return c, 1, True
    r, k = _perfect_power(c) or (c, 1)
    return r, k, k > 1 and is_prime(r)


def factorize(n: int) -> Dict[int, int]:
    """Certified prime factorization of |n| (n nonzero).

    Trial division by the primes up to DEFAULT_FACTOR_BOUND; the surviving
    cofactor must then be 1, a prime, or a prime power.  Anything else
    raises FactorizationError rather than returning a partial answer.  A
    cofactor at or above psi_13 (about 3.3e24) passes only as a probable
    prime (see `is_prime`).
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    out, c = _trial_divide(abs(n))
    if c > 1:
        r, k, prime = _cofactor_root(c)
        if not prime:
            raise FactorizationError(
                f"cofactor {c} is composite with no factor below {DEFAULT_FACTOR_BOUND}"
            )
        out[r] = k
    return out


def rational_prime_support(r: Union[Rat, int]) -> FrozenSet[int]:
    """Primes dividing numerator or denominator of the nonzero rational r."""
    r = Fraction(r)
    if r == 0:
        raise ValueError("zero has no prime support")
    return frozenset(factorize(r.numerator)).union(factorize(r.denominator))


def sqrt_decompose(n: int) -> Tuple[List[int], int]:
    """Write n > 0 as (product of atoms) * t**2 with a square-free atom product.

    Atoms are primes up to DEFAULT_FACTOR_BOUND, certified large primes, or
    at worst a composite cofactor certified square-free (a product of two
    distinct primes above the bound); atoms are always pairwise coprime.
    Raises FactorizationError when square-freeness cannot be certified.
    """
    if n <= 0:
        raise ValueError("need a positive integer")
    exps, c = _trial_divide(n)
    if c > 1:
        r, k, prime = _cofactor_root(c)
        # r has no factor up to the bound and is no power, so below the
        # bound cubed it is one prime or two distinct ones: square-free.
        if k % 2 and not prime and r >= DEFAULT_FACTOR_BOUND**3:
            raise FactorizationError(f"cannot certify square-free part of {r}")
        exps[r] = k
    atoms = sorted(p for p, e in exps.items() if e % 2)
    return atoms, math.prod(p ** (e // 2) for p, e in exps.items())


def sqrt_adjoin(r: Union[Rat, int]) -> Union[Rat, "MQElem"]:
    """Exact square root of a rational.

    Returns a Fraction when r is a perfect square, otherwise the MQElem
    t*sqrt(s) with s the certified square-free part of r (s < 0 allowed,
    via the generator -1).  The degenerate input 0 returns Fraction(0).
    """
    r = Fraction(r)
    if r == 0:
        return Fraction(0)
    m = r.numerator * r.denominator
    atoms, t = sqrt_decompose(abs(m))
    coeff = Fraction(t, r.denominator)
    if m < 0:
        atoms = [-1] + atoms
    if not atoms:
        return coeff
    return MQElem({frozenset(atoms): coeff})


_EMPTY: FrozenSet[int] = frozenset()

Coords = Dict[FrozenSet[int], Fraction]


def _normalize(coords: Coords) -> Union[Fraction, "MQElem"]:
    """Drop zero coordinates; demote to Fraction when support is rational."""
    clean = {k: v for k, v in coords.items() if v}
    if not clean:
        return Fraction(0)
    if len(clean) == 1 and _EMPTY in clean:
        return clean[_EMPTY]
    out = object.__new__(MQElem)
    out._coords = clean
    return out


class MQElem:
    """Element of a multi-quadratic field Q(sqrt(d) : d in generators).

    Coordinates map frozensets of generators to rationals; the monomial for
    {d1, d2} means sqrt(d1)*sqrt(d2) under the principal-branch convention
    (positive root for d > 0, upper-half-plane root for -1), so sqrt(6) is
    stored as the single monomial over {2, 3} and never as a generator 6.
    The empty set carries the rational part.

    Arithmetic results are auto-demoted to Fraction whenever the support
    collapses to the rational part, so `beta * beta` really is a Fraction.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: Mapping[Iterable[int], Union[Rat, int]]):
        clean: Coords = {}
        for key, val in coords.items():
            atoms, mult = self._canonical_atoms(key)
            v = Fraction(val) * mult
            if v:
                prev = clean.get(atoms)
                total = v if prev is None else prev + v
                if total:
                    clean[atoms] = total
                elif prev is not None:
                    del clean[atoms]
        self._coords = clean
        self._check_coprime()

    @staticmethod
    def _canonical_atoms(key: Iterable[int]) -> Tuple[FrozenSet[int], int]:
        """Expand generators to canonical atoms; xor repeats into a multiplier."""
        cur: set = set()
        mult = 1
        for d in key:
            if d == -1:
                d_atoms: List[int] = [-1]
            elif d in (0, 1):
                raise ValueError(f"invalid generator {d}")
            else:
                d_atoms, t = sqrt_decompose(abs(d))
                if t != 1:
                    raise ValueError(f"generator {d} is not square-free")
                if d < 0:
                    d_atoms = [-1] + d_atoms
            for a in d_atoms:
                if a in cur:
                    cur.discard(a)
                    mult *= a
                else:
                    cur.add(a)
        return frozenset(cur), mult

    def _check_coprime(self) -> None:
        atoms = sorted({a for key in self._coords for a in key if a > 1})
        for i, a in enumerate(atoms):
            for b in atoms[i + 1 :]:
                if math.gcd(a, b) != 1:
                    raise FactorizationError(
                        f"generators {a} and {b} share an uncertified factor"
                    )

    @property
    def generators(self) -> Tuple[int, ...]:
        return tuple(sorted({a for key in self._coords for a in key}))

    @property
    def is_rational(self) -> bool:
        return all(k == _EMPTY for k in self._coords)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is irrational")
        return self._coords.get(_EMPTY, Fraction(0))

    def coordinate(self, key: Iterable[int]) -> Fraction:
        """Coordinate on the monomial for the given generator subset."""
        atoms, mult = self._canonical_atoms(key)
        return self._coords.get(atoms, Fraction(0)) * mult

    @staticmethod
    def _coerce(other) -> Union[Coords, None]:
        if isinstance(other, MQElem):
            return other._coords
        if isinstance(other, (int, Fraction)):
            return {_EMPTY: Fraction(other)} if other else {}
        return None

    def __add__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        out = dict(self._coords)
        for k, v in oc.items():
            out[k] = out.get(k, Fraction(0)) + v
        return _normalize(out)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(MQElem)
        out._coords = {k: -v for k, v in self._coords.items()}
        return out

    def __sub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        out = dict(self._coords)
        for k, v in oc.items():
            out[k] = out.get(k, Fraction(0)) - v
        return _normalize(out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        out: Coords = {}
        for k1, v1 in self._coords.items():
            for k2, v2 in oc.items():
                key = k1.symmetric_difference(k2)
                v = v1 * v2
                for d in k1 & k2:
                    v *= d
                out[key] = out.get(key, Fraction(0)) + v
        return _normalize(out)

    __rmul__ = __mul__

    def conjugate(self, gen: int) -> Union[Fraction, "MQElem"]:
        """Flip the sign of sqrt(gen): negate coordinates whose key holds gen."""
        out = {k: (-v if gen in k else v) for k, v in self._coords.items()}
        return _normalize(out)

    def inverse(self) -> Union[Fraction, "MQElem"]:
        if not self._coords:
            raise ZeroDivisionError("inverse of zero")
        gens = self.generators
        if not gens:
            return 1 / self._coords[_EMPTY]
        d = gens[-1]
        conj = self.conjugate(d)
        norm = self * conj
        if isinstance(norm, Fraction):
            inv_norm: Union[Fraction, MQElem] = 1 / norm
        else:
            inv_norm = norm.inverse()
        return conj * inv_norm

    def __truediv__(self, other):
        if isinstance(other, MQElem):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * Fraction(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result: Union[Fraction, MQElem] = Fraction(1)
        base2: Union[Fraction, MQElem] = self
        k = n
        while k:
            if k & 1:
                result = result * base2
            base2 = base2 * base2
            k >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self._coords)

    def __eq__(self, other) -> bool:
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self._coords == oc

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self._coords.get(_EMPTY, Fraction(0)))
        return hash(frozenset(self._coords.items()))

    def __repr__(self) -> str:
        if not self._coords:
            return "MQElem(0)"
        parts = []
        for key in sorted(self._coords, key=lambda k: sorted(k)):
            v = self._coords[key]
            mono = "*".join(f"sqrt({d})" for d in sorted(key))
            parts.append(f"{v}" if not mono else f"{v}*{mono}")
        return "MQElem(" + " + ".join(parts) + ")"


#: Scalars accepted by the polynomial and curve layers.
Scalar = Union[Fraction, MQElem]


def scalar_inv(s: Scalar) -> Scalar:
    """Multiplicative inverse of a Fraction or MQElem."""
    if isinstance(s, MQElem):
        return s.inverse()
    return 1 / Fraction(s)


def as_rational(s: Union[Scalar, int]) -> Fraction:
    """Coerce a scalar known to be rational into a Fraction."""
    if isinstance(s, MQElem):
        return s.as_fraction()
    return Fraction(s)
