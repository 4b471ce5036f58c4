import pytest
from hypothesis import given, settings, strategies as st

from prymcover.errors import InternalCheckError
from prymcover.finitefield import (
    MAX_FIELD_ORDER,
    ZERO_LOG,
    FiniteField,
    check_field_order,
    get_field,
    least_irreducible,
    least_nonresidue,
)
from prymcover.zeta import FFCurve, count_points


class TestModulusChoice:
    def test_degree_one(self):
        assert least_irreducible(5, 1) == (0, 1)

    def test_f13_squared(self):
        # x^2 + c for c = 0, 1 are reducible mod 13 (0 and -1 are squares);
        # x^2 + 2 is the first irreducible by integer encoding.
        assert least_irreducible(13, 2) == (2, 0, 1)

    def test_f5_squared(self):
        # squares mod 5 are {0,1,4}: x^2, x^2+1=x^2-4, x^2+4=x^2-1 split;
        # x^2+2 has root iff -2=3 is a square: it is not, so (2, 0, 1).
        assert least_irreducible(5, 2) == (2, 0, 1)

    def test_irreducibility_brute(self):
        # no root in F_p for degrees 2 and 3 (root-free = irreducible there)
        for p in (3, 5, 7, 11, 13):
            for deg in (2, 3):
                mod = least_irreducible(p, deg)
                for x in range(p):
                    acc = 0
                    for c in reversed(mod):
                        acc = (acc * x + c) % p
                    assert acc != 0, (p, deg, mod, x)


class TestFieldArithmetic:
    def test_prime_field(self):
        f = FiniteField(7)
        a, b = f.embed(3), f.embed(5)
        assert f.add(a, b) == f.embed(1)
        assert f.mul(a, b) == f.embed(1)
        assert f.inv(a) == f.embed(5)

    def test_extension_basics(self):
        f = FiniteField(13, 2)
        # x * x = -2 since modulus is x^2 + 2; x has code p
        x = 13
        assert f.mul(x, x) == f.embed(-2)
        assert f.order == 169

    def test_element_count(self):
        f = FiniteField(3, 3)
        elems = list(f.element_list())
        assert len(elems) == 27
        assert len(set(elems)) == 27

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 168), st.integers(0, 168))
    def test_field_axioms_f169(self, i, j):
        f = get_field(13, 2)
        a, b = i, j
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1

    def test_frobenius_fixed_field(self):
        # a^(p^deg) = a for every a
        f = FiniteField(5, 2)
        for a in f.element_list():
            assert f.pow(a, 25) == a

    def test_multiplicative_order_divides(self):
        f = FiniteField(7, 2)
        for a in f.element_list():
            if a != 0:
                assert f.pow(a, 48) == 1


class TestCharacter:
    def test_prime_field_values(self):
        f = get_field(11)
        squares = {pow(x, 2, 11) for x in range(1, 11)}
        for a in range(11):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert f.chi(f.embed(a)) == expected

    def test_tables_match_definition(self):
        for p, deg in ((13, 1), (5, 2), (13, 2), (3, 3), (17, 2)):
            f = get_field(p, deg)
            table = f.chi_table()
            assert len(table) == f.order
            for z in f.element_list():
                assert table[z] == f.chi(z)

    def test_sqrt_table(self):
        for p, deg in LOG_FIELDS:
            f = get_field(p, deg)
            sq = f.sqrt_table()
            chi = f.chi_table()
            assert len(sq) == f.order
            roots = [(s, r) for s, r in enumerate(sq) if r != -1]
            assert len(roots) == (f.order - 1) // 2
            for s, r in roots:
                assert f.mul(r, r) == s
            for s, r in enumerate(sq):
                assert (r != -1) == (chi[s] == 1), (p, deg, s)

    def test_square_counts(self):
        f = get_field(13, 2)
        table = list(f.chi_table())
        assert table.count(1) == (169 - 1) // 2
        assert table.count(-1) == (169 - 1) // 2
        assert table.count(0) == 1

    def test_views_need_odd_characteristic(self):
        with pytest.raises(ValueError):
            FiniteField(2, 3).chi_table()


LOG_FIELDS = ((5, 2), (13, 2), (3, 3), (17, 2))


def _mult_order(f, a):
    k, x = 1, a
    while x != 1:
        x = f.mul(x, a)
        k += 1
    return k


class TestLogTables:
    def test_generator_is_least_primitive(self):
        for p, deg in LOG_FIELDS:
            f = get_field(p, deg)
            g = f.generator()
            assert _mult_order(f, g) == f.order - 1
            for c in range(1, g):
                assert _mult_order(f, c) < f.order - 1
        assert get_field(13, 2).generator() == 15
        assert get_field(17, 2).generator() == 19

    def test_exp_log_bijection(self):
        for p, deg in LOG_FIELDS:
            f = get_field(p, deg)
            tabs = f.logs()
            assert sorted(tabs.exp) == list(range(1, f.order))
            assert tabs.log[0] == ZERO_LOG
            g = f.generator()
            x = 1
            for i, c in enumerate(tabs.exp):
                assert c == x
                assert tabs.log[c] == i
                x = f.mul(x, g)
            assert x == 1

    def test_zech_matches_definitional_add(self):
        for p, deg in LOG_FIELDS:
            f = get_field(p, deg)
            tabs = f.logs()
            assert len(tabs.zech) == f.order - 1
            for i, c in enumerate(tabs.exp):
                s = f.add(1, c)
                if s == 0:
                    assert tabs.zech[i] == ZERO_LOG
                else:
                    assert tabs.exp[tabs.zech[i]] == s

    def test_log_add_every_pair(self):
        f = get_field(5, 2)
        tabs = f.logs()
        logs = [ZERO_LOG] + list(range(f.order - 1))

        def elem(lg):
            return 0 if lg == ZERO_LOG else tabs.exp[lg]

        for la in logs:
            for lb in logs:
                assert elem(tabs.add(la, lb)) == f.add(elem(la), elem(lb))

    def test_mul_every_pair(self):
        # the definitional product against log addition, on every pair
        for p, deg in ((5, 2), (3, 3)):
            f = get_field(p, deg)
            exp = f.logs().exp
            n = f.order - 1
            for i in range(n):
                for j in range(n):
                    assert f.mul(exp[i], exp[j]) == exp[(i + j) % n], (p, deg, i, j)

    def test_build_rejects_a_non_generator(self):
        f = FiniteField(5, 2)
        f.generator = lambda: f.embed(4)  # order 2, not primitive
        with pytest.raises(InternalCheckError):
            f.logs()

    def test_frobenius_orbits(self):
        for p, deg in LOG_FIELDS:
            f = get_field(p, deg)
            exp = f.logs().exp
            reps, sizes = f.frobenius_orbits()
            seen = set()
            for r, size in zip(reps, sizes):
                x = exp[r]
                orbit = {x}
                y = f.pow(x, p)
                while y != x:
                    orbit.add(y)
                    y = f.pow(y, p)
                assert len(orbit) == size
                assert min(f.logs().log[z] for z in orbit) == r
                assert not orbit & seen
                seen |= orbit
            assert len(seen) == f.order - 1


class TestFieldSizeGuard:
    def test_limit_admits_the_default_budget(self):
        assert 31**4 <= MAX_FIELD_ORDER < 37**4
        check_field_order(31, 4)

    def test_refused_from_the_estimate(self):
        with pytest.raises(ValueError, match=r"F_37\^4 has 1874161 elements"):
            check_field_order(37, 4)

    def test_construction_refused_before_the_modulus_search(self):
        with pytest.raises(ValueError, match=r"F_37\^4 has 1874161 elements"):
            FiniteField(37, 4)

    def test_huge_field_refused_at_once(self):
        # No x^4 + c is irreducible when p = 3 mod 4, so a modulus search
        # over F_1000003 would test all p of them before the first success.
        with pytest.raises(ValueError, match="more than MAX_FIELD_ORDER"):
            FiniteField(1000003, 4)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FiniteField(3, 10**4),
            lambda: FiniteField(3, 10**7),
            lambda: count_points(FFCurve(3, (0, 1, 2)), 10**4),
        ],
        ids=["field-1e4", "field-1e7", "count-points-1e4"],
    )
    def test_huge_degree_refused_before_the_power(self, build):
        # 3^(10^4) has 4772 digits, past int-to-str conversion; 3^(10^7)
        # takes seconds to form
        with pytest.raises(ValueError, match="more than MAX_FIELD_ORDER"):
            build()


class TestNonresidue:
    def test_values(self):
        assert least_nonresidue(3) == 2
        assert least_nonresidue(5) == 2
        assert least_nonresidue(7) == 3
        assert least_nonresidue(17) == 3
        assert least_nonresidue(73) == 5

    def test_is_nonresidue(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            n = least_nonresidue(p)
            assert pow(n, (p - 1) // 2, p) == p - 1

    def test_even_char_rejected(self):
        with pytest.raises(ValueError):
            least_nonresidue(2)


class TestCache:
    def test_shared_instance(self):
        assert get_field(13, 2) is get_field(13, 2)

    def test_composite_char_rejected(self):
        with pytest.raises(ValueError):
            FiniteField(6)
