from fractions import Fraction as F

import pytest

from prymcover.curves import (
    CurvePoint,
    bad_primes,
    compute_t,
    hyperelliptic_involution,
    is_on_curve,
    make_curve,
)
from prymcover.polys import Poly, RatFunc
from prymcover.scalars import sqrt_adjoin


# Genus-1 working example used across the suite: the three roots have pairwise
# differences with small prime support and P = (1, 1/12), Q = (0, 5/8) lie on
# the curve.
E1 = make_curve([F(-1, 3), F(9, 8), F(25, 24)])
E1_P = CurvePoint.affine(1, F(1, 12))
E1_Q = CurvePoint.affine(0, F(5, 8))


class TestModel:
    def test_genus(self):
        assert make_curve([0, 1, 2]).genus == 1
        assert make_curve([0, 1, 2, 3]).genus == 1
        assert make_curve([0, 1, 2, 3, 4]).genus == 2
        assert make_curve([0, 1, 2, 3, 4, 5]).genus == 2

    def test_odd_even(self):
        assert make_curve([0, 1, 2]).is_odd_model
        assert not make_curve([0, 1, 2, 3]).is_odd_model

    def test_poly(self):
        c = make_curve([0, 1, 2], lead=3)
        assert c.poly() == Poly([0, 6, -9, 3])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            make_curve([0, 1])
        with pytest.raises(ValueError):
            make_curve([0, 1, 1])
        with pytest.raises(ValueError):
            make_curve([0, 1, 2], lead=0)

    def test_irrational_roots_allowed(self):
        s = sqrt_adjoin(2)
        c = make_curve([s, -s, 1])
        assert not c.is_rational()
        with pytest.raises(ValueError):
            bad_primes(c)


class TestMembership:
    def test_on_curve(self):
        assert is_on_curve(E1, E1_P)
        assert is_on_curve(E1, E1_Q)
        assert is_on_curve(E1, CurvePoint.infinity())
        assert not is_on_curve(E1, CurvePoint.affine(1, 1))

    def test_involution(self):
        ip = hyperelliptic_involution(E1, E1_P)
        assert ip == CurvePoint.affine(1, F(-1, 12))
        assert is_on_curve(E1, ip)
        inf = CurvePoint.infinity()
        assert hyperelliptic_involution(E1, inf) == inf


class TestBadPrimes:
    def test_simple_integer_model(self):
        c = make_curve([0, 1, -1])
        assert bad_primes(c) == {2}

    def test_e1(self):
        assert bad_primes(E1) == {2, 3, 5, 7, 11}

    def test_lead_and_collision(self):
        # lead 5 is not a 5-unit; roots 0 and 7 collide mod 7, and roots 7
        # and 1 collide mod 2 and mod 3.
        c = make_curve([0, 7, 1], lead=5)
        assert bad_primes(c) == {2, 3, 5, 7}


class TestComputeT:
    def test_coordinate_inverse(self):
        c = make_curve([0, 1, -1])
        f = RatFunc(Poly([1]), Poly([0, 1]))
        assert compute_t(c, f, ()) == (2,)

    def test_includes_s(self):
        c = make_curve([0, 1, -1])
        f = RatFunc(Poly([1]), Poly([0, 1]))
        assert compute_t(c, f, (13,)) == (2, 13)

    def test_constant_scale(self):
        c = make_curve([0, 1, -1])
        # f = 5/x degenerates to infinity at 5.
        f = RatFunc(Poly([5]), Poly([0, 1]))
        assert compute_t(c, f, ()) == (2, 5)

    def test_zero_pole_collision(self):
        c = make_curve([0, 1, -1])
        # zero at 3, pole at 10: they collide mod 7.
        f = RatFunc(Poly([-3, 1]), Poly([-10, 1]))
        assert 7 in compute_t(c, f, ())

    def test_rejects_composite_s(self):
        c = make_curve([0, 1, -1])
        f = RatFunc(Poly([1]), Poly([0, 1]))
        with pytest.raises(ValueError):
            compute_t(c, f, (6,))
