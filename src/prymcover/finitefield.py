"""Finite fields F_{p^i} with a deterministic modulus and generator.

An element is an integer code c in [0, q): the base-p digits of c, least
significant first, are its coefficients (constant first) modulo the
lexicographically least monic irreducible polynomial of degree i, where
polynomials are ordered by the same encoding of their non-leading
coefficients.  An F_p element is its own code, and the least primitive
element in code order is the generator g.  This pins the field
representation, so point counts and any serialized element are
reproducible across runs.  Products, powers and the irreducibility test of
the modulus run on the F_p polynomial kernel in `modp`.

Bulk work runs on integer discrete logarithms to the base g (Zech
logarithms, after Huber, IEEE Trans. IT 36, 1990): three `array('i')` tables,
built once per field on first use, map log -> code, code -> log (with
ZERO_LOG for zero) and i -> log(1 + g^i).  A product is a sum of logs modulo
q - 1, a sum is one Zech lookup, the quadratic character is the parity of
the log and a square root halves it.  `zech_parity` packs the parities of
the Zech table into one int, so the character of x + c for every x at once
is a rotation of it.  The definitional arithmetic (`add`, `mul`, `pow`,
`inv`) never reads those tables: it builds them and, with the definitional
character `chi`, serves as the oracle the tests check them against.
"""

from __future__ import annotations

import operator
import sys
from array import array
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import modp
from .errors import InternalCheckError
from .scalars import factorize, is_prime

# Largest field FiniteField constructs, refused before its modulus search
# (log tables take 12 bytes per element, so 12 MB at the limit).  The Prym
# check builds F_{p^g}, so it admits genus 2 up to p = 1021, genus 3 up to
# p = 101 and genus 4 up to p = 31.
MAX_FIELD_ORDER = 1 << 20
ZERO_LOG = -1  # the log of zero in every table


def check_field_order(p: int, deg: int) -> None:
    """Refuse F_{p^deg} past MAX_FIELD_ORDER from its size alone.  A p or a
    deg past these bounds is refused before p^deg is formed: the power could
    have millions of digits."""
    if p > MAX_FIELD_ORDER or deg > MAX_FIELD_ORDER.bit_length():
        raise ValueError(
            f"F_{p}^{deg} has more than MAX_FIELD_ORDER = {MAX_FIELD_ORDER} elements"
        )
    q = p**deg
    if q > MAX_FIELD_ORDER:
        raise ValueError(
            f"F_{p}^{deg} has {q} elements, more than MAX_FIELD_ORDER = {MAX_FIELD_ORDER}"
        )


def _digits(c: int, p: int, deg: int) -> List[int]:
    """The deg base-p digits of a code, least significant first: the
    coefficients of its element, constant first."""
    out = []
    for _ in range(deg):
        c, d = divmod(c, p)
        out.append(d)
    return out


def _code(digits: Sequence[int], p: int) -> int:
    """The code of an element from its coefficients, constant first."""
    c = 0
    for d in reversed(digits):
        c = c * p + d
    return c


def _is_irreducible(mod: List[int], p: int) -> bool:
    """Monic `mod` of degree d is irreducible over F_p iff x^(p^d) = x mod it
    and x^(p^(d/l)) - x is coprime to it for every prime l dividing d."""
    d = len(mod) - 1
    x = [0, 1]
    if modp.powmod(x, p**d, mod, p) != x:
        return False
    return all(
        modp.gcd(modp.sub(modp.powmod(x, p ** (d // ell), mod, p), x, p), mod, p) == [1]
        for ell in factorize(d)
    )


def least_irreducible(p: int, deg: int) -> Tuple[int, ...]:
    """Lexicographically least monic irreducible of given degree over F_p,
    returned as the full coefficient tuple (constant first, lead 1)."""
    if deg == 1:
        return (0, 1)
    for code in range(p**deg):
        mod = _digits(code, p, deg) + [1]
        if _is_irreducible(mod, p):
            return tuple(mod)
    raise InternalCheckError(f"no irreducible of degree {deg} over F_{p}")


class LogTables(NamedTuple):
    """Discrete-log tables of F_q to its generator g.

    exp[i] is the code of g^i for 0 <= i < q - 1; log[c] is the log of the
    element with code c, ZERO_LOG for c = 0; zech[i] is log(1 + g^i),
    ZERO_LOG where 1 + g^i = 0.
    """

    exp: array
    log: array
    zech: array

    def add(self, la: int, lb: int) -> int:
        """log(g^la + g^lb), where ZERO_LOG stands for zero."""
        if la < 0:
            return lb
        if lb < 0:
            return la
        n = len(self.exp)
        z = self.zech[(la - lb) % n]
        return ZERO_LOG if z < 0 else (lb + z) % n


class FiniteField:
    """F_{p^deg} on integer codes: arithmetic on the `modp` kernel, plus
    discrete-log tables built on demand."""

    def __init__(self, p: int, deg: int = 1):
        if not is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        if deg < 1:
            raise ValueError("extension degree must be positive")
        check_field_order(p, deg)
        self.p = p
        self.deg = deg
        self.order = p**deg
        self.modulus = least_irreducible(p, deg)
        self._logs: Optional[LogTables] = None
        self._orbits: Optional[Tuple[array, array]] = None
        self._zech_parity: Optional[int] = None

    def embed(self, a: int) -> int:
        """Image of an integer under Z -> F_p -> F_{p^deg}."""
        return a % self.p

    def element_list(self) -> range:
        """Every element, in code order."""
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        p, deg = self.p, self.deg
        return _code([(x + y) % p for x, y in zip(_digits(a, p, deg), _digits(b, p, deg))], p)

    def neg(self, a: int) -> int:
        p = self.p
        return _code([-x % p for x in _digits(a, p, self.deg)], p)

    def mul(self, a: int, b: int) -> int:
        p, deg = self.p, self.deg
        return _code(modp.mulmod(_digits(a, p, deg), _digits(b, p, deg), self.modulus, p), p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        p = self.p
        return _code(modp.powmod(_digits(a, p, self.deg), e, self.modulus, p), p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(a, self.order - 2)

    def chi(self, a: int) -> int:
        """Quadratic character by definition: a^((q-1)/2) in {-1, 0, 1}."""
        if a == 0:
            return 0
        r = self.pow(a, (self.order - 1) // 2)
        if r == 1:
            return 1
        if r == self.p - 1:
            return -1
        raise InternalCheckError("character power landed outside {±1}")

    def generator(self) -> int:
        """The least primitive element in code order.  In a proper extension
        the search starts at code p: the codes below it are F_p elements,
        whose orders divide p - 1 < q - 1."""
        n = self.order - 1
        cofactors = [n // ell for ell in factorize(n)]
        for g in range(self.p if self.deg > 1 else 1, self.order):
            if all(self.pow(g, e) != 1 for e in cofactors):
                return g
        raise InternalCheckError(f"no primitive element in {self!r}")

    def logs(self) -> LogTables:
        """The exp, log and Zech tables, built on first use."""
        if self._logs is None:
            self._logs = self._build_logs()
        return self._logs

    def _build_logs(self) -> LogTables:
        p, deg, q = self.p, self.deg, self.order
        n = q - 1
        g = self.generator()
        # Multiplication by g is F_p-linear: row k of its matrix gives digit
        # k of g*v from the digits of v.
        cols = [_digits(self.mul(g, p**j), p, deg) for j in range(deg)]
        rows = list(zip(*cols))
        weights = [p**k for k in range(deg)]
        exp = array("i", [0]) * n
        one = v = _digits(1, p, deg)
        for i in range(n):
            exp[i] = sum(map(operator.mul, weights, v))
            v = [sum(map(operator.mul, row, v)) % p for row in rows]
        log = array("i", [ZERO_LOG]) * q
        for i, c in enumerate(exp):
            log[c] = i
        if v != one or log[0] != ZERO_LOG or log.count(ZERO_LOG) != 1:
            raise InternalCheckError(
                f"powers of the generator of {self!r} miss a nonzero element"
            )
        # zech[i] = log(g^i + 1).  Adding 1 steps the constant digit, which
        # wraps from p - 1 to 0 inside each block of p codes, so the log of
        # c + 1 by code is each block of `log` rotated by one; a gather of
        # that array by `exp` gives zech without a q-long list of ints.
        log_succ = array("i")
        for b in range(0, q, p):
            log_succ += log[b + 1 : b + p]
            log_succ.append(log[b])
        zech = array("i", map(log_succ.__getitem__, exp))
        return LogTables(exp, log, zech)

    def zech_parity(self) -> int:
        """The quadratic character of 1 + g^i in log order, as one int: bit
        i is set where 1 + g^i is a nonsquare, and clear at its one zero,
        i = (q - 1)/2.  For c in F_p^*, g^i + c = c (1 + g^(i - log c)), so the
        character of x + c at every x = g^i is this int rotated left by
        log c, complemented when c is a nonsquare.  Built from the Zech table
        on first use and kept on the field, q bits."""
        if self._zech_parity is None:
            self._check_odd()
            zech = self.logs().zech
            size = zech.itemsize
            # The low byte of each entry carries its parity (ZERO_LOG = -1
            # reads odd and is cleared below).
            first = 0 if sys.byteorder == "little" else size - 1
            low = zech.tobytes()[first::size]
            digits = low.translate(bytes(48 + (b & 1) for b in range(256)))
            self._zech_parity = int(digits[::-1], 2) & ~(1 << (len(zech) // 2))
        return self._zech_parity

    def frobenius_orbits(self) -> Tuple[array, array]:
        """Orbits of x -> x^p on the nonzero elements, as logs: the orbit of
        g^i is {g^(i p^j)}.  Returns (least log of each orbit, orbit size),
        cached.  A polynomial with F_p coefficients maps each orbit into one
        orbit, so sums over the field of functions of such values can visit
        one representative per orbit, weighted by its size (Lidl and
        Niederreiter, Finite Fields, ch. 5-6)."""
        if self._orbits is None:
            p, n = self.p, self.order - 1
            seen = bytearray(n)
            reps, sizes = array("i"), array("i")
            for i in range(n):
                if seen[i]:
                    continue
                j, size = i, 0
                while not seen[j]:
                    seen[j] = 1
                    size += 1
                    j = j * p % n
                reps.append(i)
                sizes.append(size)
            if sum(sizes) != n or any(self.deg % s for s in sizes):
                raise InternalCheckError(f"Frobenius orbits of {self!r} do not partition it")
            self._orbits = (reps, sizes)
        return self._orbits

    def _check_odd(self) -> None:
        if self.p == 2:
            raise ValueError("the quadratic character needs odd characteristic")

    def chi_table(self) -> array:
        """Quadratic character of every element, indexed by code: the parity
        of its log, 0 at zero."""
        self._check_odd()
        return array("b", [0 if l < 0 else 1 - 2 * (l & 1) for l in self.logs().log])

    def sqrt_table(self) -> array:
        """Code of one square root of every nonzero square, indexed by code
        (half its log; the other root is the negation), -1 at zero and at
        nonsquares."""
        self._check_odd()
        exp = self.logs().exp
        out = array("i", [-1]) * self.order
        for j in range(len(exp) // 2):
            out[exp[2 * j]] = exp[j]
        return out

    def __repr__(self) -> str:
        return f"FiniteField({self.p}, {self.deg})"


_FIELD_CACHE: Dict[Tuple[int, int], FiniteField] = {}


def get_field(p: int, deg: int = 1) -> FiniteField:
    """Shared field instances so log tables are built once per run.  Only one
    characteristic is kept, so memory is bounded by one prime's tables."""
    key = (p, deg)
    if key not in _FIELD_CACHE:
        field = FiniteField(p, deg)
        if any(k[0] != p for k in _FIELD_CACHE):
            _FIELD_CACHE.clear()
        _FIELD_CACHE[key] = field
    return _FIELD_CACHE[key]


def least_nonresidue(p: int) -> int:
    """Smallest positive quadratic nonresidue modulo an odd prime."""
    if p == 2:
        raise ValueError("p must be odd")
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise InternalCheckError(f"no nonresidue below {p}")
