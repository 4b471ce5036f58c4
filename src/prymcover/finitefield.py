"""Finite fields F_{p^i} with a deterministic modulus and generator.

Elements are coefficient tuples (constant first) modulo the
lexicographically least monic irreducible polynomial of degree i, where
polynomials are ordered by their integer encoding sum(c_j * p^j) over the
non-leading coefficients.  The same encoding gives every element an integer
code in [0, q), and the least primitive element in code order is the
generator g.  This pins the field representation, so point counts and any
serialized element are reproducible across runs.  The modulus search tests
irreducibility with the F_p polynomial kernel in `modp`.

Bulk work runs on integer discrete logarithms to the base g (Zech
logarithms, after Huber, IEEE Trans. IT 36, 1990): three `array('l')` tables,
built once per field on first use, map log -> code, code -> log (with
ZERO_LOG for zero) and i -> log(1 + g^i).  A product is a sum of logs modulo
q - 1, a sum is one Zech lookup, the quadratic character is the parity of
the log and a square root halves it.  The tuple arithmetic (`add`, `mul`,
`pow`, `inv`) builds those tables and, with the definitional character
`chi`, serves as the oracle the tests check them against.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from . import modp
from .errors import InternalCheckError
from .scalars import factorize, is_prime

Elem = Tuple[int, ...]

# Largest field whose log tables are built (24 bytes per element, so 24 MB
# at the limit).  It admits F_{31^4}, the largest field a genus-2 check
# meets within the CLI's default prime budget.
MAX_FIELD_ORDER = 1 << 20
ZERO_LOG = -1  # the log of zero in every table


def check_field_order(p: int, deg: int) -> None:
    """Refuse F_{p^deg} past MAX_FIELD_ORDER from its size alone."""
    q = p**deg
    if q > MAX_FIELD_ORDER:
        raise ValueError(
            f"F_{p}^{deg} has {q} elements, more than MAX_FIELD_ORDER = {MAX_FIELD_ORDER}"
        )


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
        coeffs = []
        k = code
        for _ in range(deg):
            coeffs.append(k % p)
            k //= p
        mod = coeffs + [1]
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
    """F_{p^deg}: tuple arithmetic plus discrete-log tables built on demand."""

    def __init__(self, p: int, deg: int = 1):
        if not is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        if deg < 1:
            raise ValueError("extension degree must be positive")
        self.p = p
        self.deg = deg
        self.order = p**deg
        self.modulus = least_irreducible(p, deg)
        # x^(deg+t) mod modulus, coefficients constant-first
        red: List[Tuple[int, ...]] = []
        cur = [(-c) % p for c in self.modulus[:deg]]
        red.append(tuple(cur))
        for _ in range(deg - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for j in range(deg):
                    nxt[j] = (nxt[j] - top * self.modulus[j]) % p
            cur = [v % p for v in nxt]
            red.append(tuple(cur))
        self._red = red
        self._zero: Elem = (0,) * deg
        self._one: Elem = (1,) + (0,) * (deg - 1)
        self._logs: Optional[LogTables] = None
        self._orbits: Optional[Tuple[array, array]] = None

    def zero(self) -> Elem:
        return self._zero

    def one(self) -> Elem:
        return self._one

    def embed(self, a: int) -> Elem:
        """Image of an integer under Z -> F_p -> F_{p^deg}."""
        return (a % self.p,) + (0,) * (self.deg - 1)

    def code(self, a: Elem) -> int:
        """Integer code sum a_j p^j of an element; an F_p element is its own code."""
        c = 0
        for d in reversed(a):
            c = c * self.p + d
        return c

    def decode(self, c: int) -> Elem:
        out = []
        for _ in range(self.deg):
            c, d = divmod(c, self.p)
            out.append(d)
        return tuple(out)

    def elements(self) -> Iterable[Elem]:
        return itertools.product(range(self.p), repeat=self.deg)

    def element_list(self) -> range:
        """Every element as its code, in code order; `decode` gives the tuple."""
        return range(self.order)

    def add(self, a: Elem, b: Elem) -> Elem:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a: Elem) -> Elem:
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a: Elem, b: Elem) -> Elem:
        p = self.p
        deg = self.deg
        if deg == 1:
            return (a[0] * b[0] % p,)
        prod = [0] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for k in range(2 * deg - 2, deg - 1, -1):
            c = prod[k] % p
            if c:
                red = self._red[k - deg]
                for j, rj in enumerate(red):
                    if rj:
                        prod[j] += c * rj
        return tuple(v % p for v in prod[:deg])

    def pow(self, a: Elem, e: int) -> Elem:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self._one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: Elem) -> Elem:
        if a == self._zero:
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(a, self.order - 2)

    def chi(self, a: Elem) -> int:
        """Quadratic character by definition: a^((q-1)/2) in {-1, 0, 1}."""
        if a == self._zero:
            return 0
        r = self.pow(a, (self.order - 1) // 2)
        if r == self._one:
            return 1
        if r == self.neg(self._one):
            return -1
        raise InternalCheckError("character power landed outside {±1}")

    def generator(self) -> Elem:
        """The least primitive element in code order."""
        n = self.order - 1
        cofactors = [n // ell for ell in factorize(n)]
        for c in range(1, self.order):
            g = self.decode(c)
            if all(self.pow(g, e) != self._one for e in cofactors):
                return g
        raise InternalCheckError(f"no primitive element in {self!r}")

    def logs(self) -> LogTables:
        """The exp, log and Zech tables, built on first use."""
        if self._logs is None:
            self._logs = self._build_logs()
        return self._logs

    def _build_logs(self) -> LogTables:
        p, deg, q = self.p, self.deg, self.order
        check_field_order(p, deg)
        n = q - 1
        g = self.generator()
        # Multiplication by g is F_p-linear: row k of its matrix gives digit
        # k of g*v from the digits of v.
        cols = [self.mul(g, self.decode(p**j)) for j in range(deg)]
        rows = list(zip(*cols))
        weights = [p**k for k in range(deg)]
        exp = array("l", [0]) * n
        v = list(self._one)
        for i in range(n):
            exp[i] = sum(map(operator.mul, weights, v))
            v = [sum(map(operator.mul, row, v)) % p for row in rows]
        log = array("l", [ZERO_LOG]) * q
        for i, c in enumerate(exp):
            log[c] = i
        if tuple(v) != self._one or log[0] != ZERO_LOG or log.count(ZERO_LOG) != 1:
            raise InternalCheckError(
                f"powers of the generator of {self!r} miss a nonzero element"
            )
        top = p - 1
        zech = array("l", [log[c - top if c % p == top else c + 1] for c in exp])
        return LogTables(exp, log, zech)

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
            reps, sizes = array("l"), array("l")
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
        out = array("l", [-1]) * self.order
        for j in range(len(exp) // 2):
            out[exp[2 * j]] = exp[j]
        return out

    def __repr__(self) -> str:
        return f"FiniteField({self.p}, {self.deg})"


_FIELD_CACHE: Dict[Tuple[int, int], FiniteField] = {}


def get_field(p: int, deg: int = 1) -> FiniteField:
    """Shared field instances so log tables are built once per run."""
    key = (p, deg)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FiniteField(p, deg)
    return _FIELD_CACHE[key]


def least_nonresidue(p: int) -> int:
    """Smallest positive quadratic nonresidue modulo an odd prime."""
    if p == 2:
        raise ValueError("p must be odd")
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise InternalCheckError(f"no nonresidue below {p}")
