import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from prymcover import modp
from prymcover.errors import InternalCheckError
from prymcover.polys import Poly

_residues = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)


def _reduced(f: Poly, p: int):
    """A Poly with integer coefficients, as trimmed residues."""
    out = [int(c) % p for c in f.coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


class TestKernel:
    def test_rat_mod(self):
        assert modp.rat_mod(F(1, 2), 5) == 3
        assert modp.rat_mod(F(-7, 3), 11) == 5
        with pytest.raises(ValueError, match="not p-integral"):
            modp.rat_mod(F(1, 10), 5)

    def test_poly_mod_keeps_a_vanishing_lead(self):
        assert modp.poly_mod(Poly([F(1), F(2), F(7)]), 7) == (1, 2, 0)

    @given(_residues, _residues, st.sampled_from([2, 3, 7, 101]))
    @example([], [1, 2], 7)
    def test_mul_and_sub_match_integer_polys(self, a, b, p):
        assert modp.mul(a, b, p) == _reduced(Poly(a) * Poly(b), p)
        assert modp.sub(a, b, p) == _reduced(Poly(a) - Poly(b), p)

    @given(_residues, st.lists(st.integers(-50, 50), min_size=1, max_size=5), st.sampled_from([3, 7, 101]))
    def test_rem_matches_division_by_a_monic_modulus(self, a, m, p):
        m = m + [1]
        assert modp.rem(a, m, p) == _reduced(Poly(a) % Poly(m), p)

    def test_rem_by_a_non_monic_modulus(self):
        # 2x + 1 vanishes at x = 3 over F_7, where x^2 + 1 is 10 = 3
        assert modp.rem([1, 0, 1], [1, 2], 7) == [3]

    @given(_residues, st.integers(min_value=0, max_value=40), st.sampled_from([3, 7, 101]))
    def test_powmod_matches_repeated_mulmod(self, a, e, p):
        m = [2, 0, 5, 1]
        want = modp.rem([1], m, p)
        for _ in range(e):
            want = modp.mulmod(want, a, m, p)
        assert modp.powmod(a, e, m, p) == want

    def test_gcd_is_monic(self):
        a = modp.mul([-1, 1], [-2, 1], 7)
        b = modp.mul([3, 3], [-2, 1], 7)
        assert modp.gcd(a, b, 7) == [5, 1]
        assert modp.gcd([3], [0, 1], 7) == [1]
        assert modp.gcd([], [], 7) == []

    @given(_residues, _residues, st.sampled_from([3, 7, 101]))
    def test_gcd_divides_both(self, a, b, p):
        g = modp.gcd(a, b, p)
        if g:
            assert g[-1] == 1
            assert modp.rem(a, g, p) == [] and modp.rem(b, g, p) == []

    def test_is_squarefree(self):
        assert modp.is_squarefree([2], 5)
        assert not modp.is_squarefree([], 5)
        assert modp.is_squarefree(modp.mul([-1, 1], [-2, 1], 5), 5)
        assert not modp.is_squarefree(modp.mul([-1, 1], [4, 1], 5), 5)
        # x^5 + 1 = (x + 1)^5 over F_5 has derivative zero
        assert not modp.is_squarefree([1, 0, 0, 0, 0, 1], 5)
        # reduction can create a repeated root: (x - 1)(x - 8) at 7
        assert not modp.is_squarefree([8, -9, 1], 7)


def _planted(roots):
    f = Poly([F(1)])
    for r in roots:
        f = f * Poly([-r, F(1)])
    return f


class TestRationalRoots:
    def test_skips_primes_where_the_reduction_is_not_squarefree(self):
        # root differences 2, 3, 5 and 7 put 2, 3, 5 and 7 in the
        # discriminant, so the roots are found modulo 11
        roots = [F(1), F(3), F(4), F(6), F(8)]
        f = _planted(roots) * Poly([F(1), F(0), F(1)])
        ints = [int(c) for c in f.coeffs]
        assert [p for p in (2, 3, 5, 7, 11) if modp.is_squarefree(ints, p)] == [11]
        assert modp.rational_roots(f) == roots

    def test_lead_divisible_by_small_primes(self):
        # lead 210 rules out 2, 3, 5 and 7 however the roots reduce
        f = _planted([F(1, 2), F(-4, 3), F(2, 5), F(6, 7)]) * Poly([F(210)])
        assert modp.rational_roots(f) == [F(-4, 3), F(2, 5), F(1, 2), F(6, 7)]

    def test_root_with_large_prime_factors(self):
        # (x - 1)(x - P): divisor enumeration would have to factor P
        big = 1000003 * 1000033
        f = Poly([F(big), F(-(big + 1)), F(1)])
        assert modp.rational_roots(f) == [F(1), F(big)]

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-30, max_value=30, max_denominator=12),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda t: t[0],
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_planted_roots_with_multiplicity(self, planted, lead):
        expanded = [r for r, k in sorted(planted) for _ in range(k)]
        split = _planted(expanded) * Poly([F(lead)])
        cofactor = Poly([F(3), F(1), F(2)])
        assert modp.rational_roots(split * cofactor) == sorted({r for r, _ in planted})

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-30, max_value=30, max_denominator=12),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda t: t[0],
        ),
        st.integers(min_value=1, max_value=20),
        st.fractions(min_value=F(1, 60), max_value=60, max_denominator=60),
        st.sampled_from([1, -1]),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=80, deadline=None)
    def test_planted_roots_under_a_squared_quadratic(
        self, planted, c, content, sign, low
    ):
        # (x^2 + c)^2 is irreducible and repeated, so the gcd over Z is
        # never trivial; content and sign do not move the roots
        expanded = [r for r, k in planted for _ in range(k)]
        quad = Poly([F(c), F(0), F(1)])
        f = _planted(expanded) * quad * quad * Poly([sign * content])
        f = Poly([F(0)] * low + list(f.coeffs))
        expected = {r for r, _ in planted} | ({F(0)} if low else set())
        assert modp.rational_roots(f) == sorted(expected)

    @pytest.mark.parametrize("wrong", [[1, 1], [2]])
    def test_squarefree_division_remainder_raises(self, monkeypatch, wrong):
        # (x - 2)^2 (x^2 + 1): neither x + 1 nor 2 divides it over Z
        monkeypatch.setattr(modp, "_primitive_gcd", lambda a, b: wrong)
        f = _planted([F(2), F(2)]) * Poly([F(1), F(0), F(1)])
        with pytest.raises(InternalCheckError, match="left a remainder"):
            modp.rational_roots(f)


def _int_product(factors):
    f = Poly([F(1)])
    for g in factors:
        f = f * Poly(g)
    return [int(c) for c in f.coeffs]


_sieve_denominators = st.lists(
    st.sampled_from(modp._SIEVE_PRIMES), min_size=1, max_size=3
).map(lambda ps: math.prod(ps))


class TestIntegerEntry:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=-40, max_value=40), _sieve_denominators),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=30),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=80, deadline=None)
    def test_roots_over_sieve_prime_denominators(self, planted, content, sign):
        # each denominator is a product of sieve primes, which divide the
        # lead, so the sieve must skip them
        roots = sorted({F(a, b) for a, b in planted})
        linear = [[-r.numerator, r.denominator] for r in roots]
        ints = [sign * content * c for c in _int_product(linear + [[5, 1, 1]])]
        assert modp.int_rational_roots(ints) == roots

    def test_every_sieve_prime_divides_the_lead(self):
        # no sieve prime is usable, so the polynomial goes straight on
        lead = math.prod(modp._SIEVE_PRIMES)
        ints = _int_product([[-1, lead], [1, 1, 1]])
        assert modp.int_rational_roots([-3 * c for c in ints]) == [F(1, lead)]

    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=50),
            max_size=3,
        ),
        st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_poly_wrapper(self, planted, cofactor, low):
        if not any(cofactor):
            cofactor = [1]
        linear = [[-r.numerator, r.denominator] for r in planted]
        ints = [0] * low + _int_product(linear + [cofactor]) + [0] * low
        assert modp.int_rational_roots(ints) == modp.rational_roots(Poly(ints))

    @pytest.mark.parametrize("ints", [[], [0], [0, 0, 0]])
    def test_zero_list_rejected(self, ints):
        with pytest.raises(ValueError, match="zero polynomial"):
            modp.int_rational_roots(ints)
