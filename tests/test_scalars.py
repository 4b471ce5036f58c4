import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from prymcover.scalars import (
    DEFAULT_FACTOR_BOUND,
    FactorizationError,
    MQElem,
    ORD_INFINITY,
    factorize,
    is_prime,
    prime_set,
    rat_ord_p,
    rational_prime_support,
    scalar_inv,
    sqrt_adjoin,
    sqrt_decompose,
    strip_primes,
)

# The least strong pseudoprime to the 12 prime bases 2..37 (Sorenson and
# Webster, Math. Comp. 86, 2017): 399165290221 * 798330580441.
PSI_12 = 318665857834031151167461


class TestIsPrime:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes)

    def test_carmichael(self):
        assert not is_prime(561)
        assert not is_prime(41041)

    def test_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**61 - 1))

    def test_strong_pseudoprime_to_bases_up_to_37(self):
        assert PSI_12 == 399165290221 * 798330580441
        assert not is_prime(PSI_12)
        with pytest.raises(FactorizationError):
            factorize(PSI_12)


class TestPrimeSet:
    def test_sorted_without_repeats(self):
        assert prime_set([7, 2, 7, 3, 2]) == (2, 3, 7)
        assert prime_set(()) == ()

    @pytest.mark.parametrize("bad", [0, 1, 4, -3, PSI_12])
    def test_non_primes_rejected(self, bad):
        with pytest.raises(ValueError, match=f"{bad} is not prime"):
            prime_set([2, bad])

    @pytest.mark.parametrize("bad", [2.5, 3.7, "7"])
    def test_non_integers_rejected(self, bad):
        with pytest.raises(ValueError, match="must be integers"):
            prime_set([2, bad])

    def test_strip_primes(self):
        assert strip_primes(-2**5 * 3 * 49, [2, 7]) == 3
        assert strip_primes(10, []) == 10


class TestOrdP:
    def test_examples(self):
        assert rat_ord_p(F(4, 3), 2) == 2
        assert rat_ord_p(F(4, 3), 3) == -1
        assert rat_ord_p(F(0), 5) == ORD_INFINITY

    def test_int_input(self):
        assert rat_ord_p(12, 2) == 2
        assert rat_ord_p(12, 3) == 1
        assert rat_ord_p(12, 5) == 0

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            rat_ord_p(F(1, 2), 6)

    @given(
        st.fractions(min_value=-100, max_value=100).filter(lambda r: r != 0),
        st.fractions(min_value=-100, max_value=100).filter(lambda r: r != 0),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_multiplicative(self, a, b, p):
        assert rat_ord_p(a * b, p) == rat_ord_p(a, p) + rat_ord_p(b, p)

    @given(
        st.fractions(min_value=-50, max_value=50),
        st.fractions(min_value=-50, max_value=50),
        st.sampled_from([2, 3, 5]),
    )
    def test_ultrametric(self, a, b, p):
        assert rat_ord_p(a + b, p) >= min(rat_ord_p(a, p), rat_ord_p(b, p))


class TestFactorize:
    def test_basic(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(-17) == {17: 1}
        assert factorize(1) == {}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_large_prime_cofactor(self):
        p = 2**61 - 1
        assert factorize(12 * p) == {2: 2, 3: 1, p: 1}

    def test_prime_power_cofactor(self):
        p = 1000003
        assert factorize(p * p) == {p: 2}

    def test_uncertifiable(self):
        # Two distinct primes above the bound with no usable structure for
        # full factorization.
        with pytest.raises(FactorizationError):
            factorize(1000003 * 1000033)

    def test_support(self):
        assert rational_prime_support(F(4, 15)) == {2, 3, 5}
        assert rational_prime_support(F(-1)) == frozenset()


class TestSqrtDecompose:
    def test_small(self):
        assert sqrt_decompose(1) == ([], 1)
        assert sqrt_decompose(4) == ([], 2)
        assert sqrt_decompose(8) == ([2], 2)
        assert sqrt_decompose(360) == ([2, 5], 6)

    def test_semiprime_cofactor_certified(self):
        n = 1000003 * 1000033
        atoms, t = sqrt_decompose(4 * n)
        assert atoms == [n] and t == 2

    def test_square_cofactor(self):
        n = 1000003 * 1000033
        atoms, t = sqrt_decompose(n * n)
        assert atoms == [] and t == n

    @given(
        st.dictionaries(
            st.sampled_from([2, 3, 5, 999983, 1000003, 1000033, 2**61 - 1]),
            st.integers(min_value=1, max_value=4),
            max_size=4,
        )
    )
    def test_matches_factorize(self, exps):
        # factorize and sqrt_decompose share one cofactor rule: wherever the
        # factorization is certified, the square-free split is read off it.
        n = math.prod(p**e for p, e in exps.items())
        try:
            f = factorize(n)
        except FactorizationError:
            return
        assert f == exps
        assert sqrt_decompose(n) == (
            sorted(p for p, e in f.items() if e % 2),
            math.prod(p ** (e // 2) for p, e in f.items()),
        )

    @given(st.integers(min_value=1, max_value=10**6))
    def test_reconstruct(self, n):
        atoms, t = sqrt_decompose(n)
        assert math.prod(atoms, start=t * t) == n
        for a in atoms:
            assert sqrt_decompose(a) == ([a], 1)


class TestSqrtAdjoin:
    def test_perfect_square(self):
        assert sqrt_adjoin(F(4, 9)) == F(2, 3)
        assert isinstance(sqrt_adjoin(F(4, 9)), F)

    def test_eight(self):
        e = sqrt_adjoin(8)
        assert isinstance(e, MQElem)
        assert e.coordinate([2]) == 2
        assert e * e == 8

    def test_imaginary_unit(self):
        i = sqrt_adjoin(-1)
        assert isinstance(i, MQElem)
        assert i * i == -1

    def test_zero(self):
        assert sqrt_adjoin(F(0)) == F(0)

    @given(
        st.fractions(
            min_value=-300, max_value=300, max_denominator=50
        ).filter(lambda r: r != 0)
    )
    def test_square_is_identity(self, r):
        e = sqrt_adjoin(r)
        assert e * e == r

    @given(
        st.fractions(min_value=0, max_value=300, max_denominator=50).filter(
            lambda r: r != 0
        )
    )
    def test_positive_branch(self, r):
        e = sqrt_adjoin(r)
        if isinstance(e, F):
            assert e > 0
        else:
            for key, gen_list in [(k, sorted(k)) for k in [e.generators]]:
                assert all(d > 0 for d in gen_list)


def _mq(terms):
    return MQElem({frozenset(k): v for k, v in terms.items()})


class TestMQElem:
    def test_canonical_composite_generator(self):
        # sqrt(6) must be stored over the primes {2, 3}.
        e = MQElem({frozenset([6]): 1})
        assert e.generators == (2, 3)
        assert e.coordinate([2, 3]) == 1
        assert e * e == 6

    def test_generator_collapse(self):
        # sqrt(6)*sqrt(10) = 2*sqrt(15)
        e = MQElem({frozenset([6]): 1}) * MQElem({frozenset([10]): 1})
        assert e.coordinate([3, 5]) == 2
        assert e * e == 60

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            MQElem({frozenset([8]): 1})

    def test_demotion(self):
        a = sqrt_adjoin(2)
        assert isinstance(a * a, F)
        assert isinstance(a - a, F)
        assert a - a == 0

    def test_mixed_arithmetic(self):
        a = sqrt_adjoin(2)
        e = 1 + a
        assert e.coordinate([]) == 1
        assert e.coordinate([2]) == 1
        assert (e * (1 - a)) == -1
        assert F(1, 2) * e == e / 2

    def test_conjugate(self):
        e = 3 + 2 * sqrt_adjoin(5)
        c = e.conjugate(5)
        assert c == 3 - 2 * sqrt_adjoin(5)
        assert e * c == 9 - 20

    def test_inverse_single(self):
        e = 1 + sqrt_adjoin(2)
        assert e * e.inverse() == 1

    def test_inverse_nested(self):
        e = 1 + sqrt_adjoin(2) + sqrt_adjoin(3) + 2 * sqrt_adjoin(6)
        assert e * e.inverse() == 1

    def test_inverse_zero(self):
        with pytest.raises(ZeroDivisionError):
            _mq({}).inverse()
        # Arithmetic demotes a vanished MQElem to Fraction zero.
        assert isinstance(sqrt_adjoin(2) - sqrt_adjoin(2), F)

    def test_division(self):
        a = sqrt_adjoin(2)
        b = sqrt_adjoin(3)
        assert (a / b) * b == a
        assert 1 / a == a / 2

    def test_pow(self):
        a = 1 + sqrt_adjoin(2)
        assert a**0 == 1
        assert a**3 == a * a * a
        assert a**-1 == a.inverse()

    def test_eq_hash_with_fraction(self):
        e = sqrt_adjoin(2) * sqrt_adjoin(2)
        assert e == 2
        r = _mq({(): F(3, 4)})
        assert r == F(3, 4)
        assert hash(r) == hash(F(3, 4))

    def test_scalar_inv(self):
        assert scalar_inv(F(3, 4)) == F(4, 3)
        a = sqrt_adjoin(7)
        assert a * scalar_inv(a) == 1


@st.composite
def mq_elements(draw):
    gens = [-1, 2, 3, 5]
    n_terms = draw(st.integers(min_value=0, max_value=4))
    coords = {}
    for _ in range(n_terms):
        key = frozenset(draw(st.sets(st.sampled_from(gens), max_size=3)))
        coords[key] = F(
            draw(st.integers(min_value=-9, max_value=9)),
            draw(st.integers(min_value=1, max_value=9)),
        )
    return MQElem(coords)


class TestMQRingAxioms:
    @given(mq_elements(), mq_elements(), mq_elements())
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(mq_elements(), mq_elements())
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(mq_elements(), mq_elements(), mq_elements())
    def test_associative_mul(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(mq_elements())
    def test_inverse_roundtrip(self, a):
        if a == 0:
            return
        assert a * scalar_inv(a) == 1

    @given(mq_elements())
    def test_conjugation_is_involution(self, a):
        c = a.conjugate(2) if isinstance(a, MQElem) else a
        if isinstance(c, MQElem):
            assert c.conjugate(2) == a
