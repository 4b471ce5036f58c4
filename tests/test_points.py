import itertools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from prymcover import modp, points
from prymcover.covers import (
    beta_tuples,
    cross_ratio,
    curve_through_betas,
    prym_curve_equation,
)
from prymcover.curves import CurvePoint, HyperCurve, is_on_curve, make_curve
from prymcover.errors import InternalCheckError
from prymcover.points import (
    _at_target,
    _distinct_targets,
    _elimination_matrix,
    CandidateSet,
    IntegralitySpec,
    brute_force_points,
    cr_elimination_poly,
    exceptional_points,
    rational_roots,
    recover_points,
    recover_points_detailed,
)
from prymcover.polys import Poly, RatFunc
from prymcover.scalars import as_rational, factorize, sqrt_adjoin

G2 = make_curve([F(-1, 3), F(9, 8), F(25, 24), F(4, 3), F(49, 48)])
G2_P = CurvePoint.affine(1, F(1, 144))
G2_Q_POLE = CurvePoint.affine(0, F(-35, 48))

X_OVER_ONE = RatFunc(Poly.x(), Poly.constant(1))
ONE_OVER_X = RatFunc(Poly.constant(1), Poly.x())


def _g2_candidates(count=1):
    q_plus = CurvePoint.affine(0, F(35, 48))
    tups = beta_tuples(G2, G2_P, q_plus)
    return CandidateSet(2, tuple(prym_curve_equation(t) for t in tups[:count]))


class TestIntegralitySpec:
    def test_constant_function_rejected(self):
        with pytest.raises(ValueError, match="nonconstant"):
            IntegralitySpec(RatFunc(Poly.constant(3), Poly.constant(2)), ())

    def test_height_bound_positive(self):
        with pytest.raises(ValueError, match="height bound"):
            IntegralitySpec(X_OVER_ONE, (), 0)

    def test_composite_prime_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            IntegralitySpec(X_OVER_ONE, (6,))

    def test_primes_sorted_and_deduplicated(self):
        spec = IntegralitySpec(X_OVER_ONE, (5, 2, 5, 3))
        assert spec.s_primes == (2, 3, 5)


class TestCandidateSet:
    def test_genus_mismatch(self):
        elliptic = make_curve([F(0), F(1), F(2)])
        with pytest.raises(ValueError, match="genus mismatch"):
            CandidateSet(2, (elliptic,))

    def test_irrational_candidate_rejected(self):
        irr = make_curve([F(0), F(-3), F(-8)])  # only used via its twist
        twisted = prym_curve_equation(beta_tuples(irr,
            CurvePoint.affine(12, 60), CurvePoint.affine(1, 6))[0])
        with pytest.raises(ValueError, match="rational roots"):
            CandidateSet(twisted.genus, (twisted,))


class TestBruteForce:
    def test_five_consecutive_roots_only_trivial(self):
        # y^2 = x(x-1)(x-2)(x-3)(x-4) with f = x and S empty: the only
        # S-integral points in the box are the five Weierstrass points
        curve = make_curve([F(0), F(1), F(2), F(3), F(4)])
        pts = brute_force_points(curve, IntegralitySpec(X_OVER_ONE, (), 50))
        assert [(p.x, p.y) for p in pts] == [
            (F(0), F(0)),
            (F(1), F(0)),
            (F(2), F(0)),
            (F(3), F(0)),
            (F(4), F(0)),
        ]

    def test_no_points_in_tiny_box(self):
        # f(x) < 0 for -1 <= x <= 1, so no rational square values at all
        curve = make_curve([F(2), F(3), F(5), F(7), F(11)])
        pts = brute_force_points(curve, IntegralitySpec(X_OVER_ONE, (), 1))
        assert pts == []

    def test_g2_box_finds_marked_points(self):
        pts = brute_force_points(G2, IntegralitySpec(ONE_OVER_X, (), 20))
        coords = [(p.x, p.y) for p in pts]
        assert coords == [
            (F(-1, 3), F(0)),
            (F(1), F(-1, 144)),
            (F(1), F(1, 144)),
        ]

    def test_s_primes_widen_the_net(self):
        # 1/x at the Weierstrass point x = 9/8 is 8/9, a {3}-integer
        pts = brute_force_points(G2, IntegralitySpec(ONE_OVER_X, (3,), 20))
        assert (F(9, 8), F(0)) in [(p.x, p.y) for p in pts]

    def test_points_lie_on_curve(self):
        pts = brute_force_points(G2, IntegralitySpec(ONE_OVER_X, (), 20))
        assert all(is_on_curve(G2, p) for p in pts)

    def test_irrational_model_rejected(self):
        s = sqrt_adjoin(2)
        irr = make_curve([s, -s, 1])
        with pytest.raises(ValueError, match="rational split"):
            brute_force_points(irr, IntegralitySpec(X_OVER_ONE, (), 5))


class TestRationalRoots:
    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            rational_roots(Poly())

    def test_constant_has_no_roots(self):
        assert rational_roots(Poly.constant(7)) == []

    def test_linear(self):
        assert rational_roots(Poly([F(3), F(-2)])) == [F(3, 2)]

    def test_mixed_roots_with_irreducible_cofactor(self):
        # (x - 1/3)(x + 2)(x - 5)(x^2 + 1)
        f = (
            Poly([F(-1, 3), F(1)])
            * Poly([F(2), F(1)])
            * Poly([F(-5), F(1)])
            * Poly([F(1), F(0), F(1)])
        )
        assert rational_roots(f) == [F(-2), F(1, 3), F(5)]

    def test_zero_root_multiplicity(self):
        f = Poly([F(0), F(0), F(0), F(1)])
        assert rational_roots(f) == [F(0)]

    def test_large_coefficients(self):
        # roots far beyond any divisor-enumeration comfort zone
        big = F(3**30, 2**40)
        f = Poly([-(3**30), F(2**40)]) * Poly([F(-(2**35)), F(1)]) * Poly(
            [F(1), F(1), F(1)]
        )
        assert rational_roots(f) == [big, F(2**35)]

    def test_repeated_root_reported_once(self):
        f = Poly([F(-1), F(1)]) * Poly([F(-1), F(1)]) * Poly([F(2), F(1)])
        assert rational_roots(f) == [F(-2), F(1)]

    @given(
        st.fractions(
            min_value=-30, max_value=30, max_denominator=12
        ),
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_planted_roots_recovered(self, r1, r2):
        f = Poly([-r1, F(1)]) * Poly([-r2, F(1)]) * Poly([F(3), F(1), F(2)])
        assert rational_roots(f) == sorted({r1, r2})


class TestEliminationPoly:
    def test_forward_root_present(self):
        # CR over candidate roots (1, 3, 7, 2) matched by x_P = 1 on the curve
        target = as_rational(cross_ratio(F(1), F(3), F(7), F(2)))
        poly = cr_elimination_poly(G2, G2_Q_POLE, (0, 1, 2, 3), target)
        assert not poly.is_zero()
        assert poly(F(1)) == 0

    def test_degree_is_sixteen(self):
        poly = cr_elimination_poly(G2, G2_Q_POLE, (0, 1, 2, 3), F(17, 5))
        assert poly.degree <= 16
        assert poly.degree >= 12

    def test_generic_target_misses_marked_point(self):
        poly = cr_elimination_poly(G2, G2_Q_POLE, (0, 1, 2, 3), F(17, 5))
        assert poly(F(1)) != 0

    def test_degenerate_targets_rejected(self):
        for t in (F(0), F(1)):
            with pytest.raises(ValueError, match="degenerate"):
                cr_elimination_poly(G2, G2_Q_POLE, (0, 1, 2, 3), t)

    def test_repeated_index_rejected(self):
        with pytest.raises(ValueError, match="distinct root indices"):
            cr_elimination_poly(G2, G2_Q_POLE, (0, 1, 2, 2), F(2))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cr_elimination_poly(G2, G2_Q_POLE, (0, 1, 2, 9), F(2))

    def test_infinite_base_point_rejected(self):
        with pytest.raises(ValueError, match="affine"):
            cr_elimination_poly(G2, CurvePoint.infinity(), (0, 1, 2, 3), F(2))

    @given(
        st.lists(
            st.integers(min_value=-9, max_value=9),
            min_size=5,
            max_size=5,
            unique=True,
        ),
        st.fractions(min_value=-8, max_value=8, max_denominator=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_collapses_to_zero(self, root_ints, target):
        if target in (0, 1):
            target = F(7, 2)
        roots = [F(r) for r in root_ints]
        curve = make_curve(roots)
        x_q = max(roots) + 1
        q_pt = CurvePoint.affine(x_q, F(1))
        poly = cr_elimination_poly(curve, q_pt, (0, 1, 2, 3), target)
        assert not poly.is_zero()


def _ref_mul(e1, e2, squares):
    out = {}
    for k1, v1 in e1.items():
        for k2, v2 in e2.items():
            v = v1 * v2
            for atom in k1 & k2:
                v = v * squares[atom]
            key = k1 ^ k2
            acc = out.get(key)
            v = v if acc is None else acc + v
            if v.is_zero():
                out.pop(key, None)
            else:
                out[key] = v
    return out


def _ref_pair(c_atom, z_atom, c_atom2, z_atom2):
    one = Poly([F(1)])
    return {
        frozenset({c_atom, 4 + z_atom}): one,
        frozenset({c_atom2, 4 + z_atom2}): -one,
    }


def _reference_elimination(curve, q_pt, idx, target):
    """The norm product over Q[x]: elements map frozensets of live square
    roots (c_i = sqrt(x_Q - alpha_i) as atoms 0..3, z_i = sqrt(x - alpha_i)
    as atoms 4..7) to Poly coefficients with Fraction entries."""
    roots = curve.rational_roots()
    x_q = F(q_pt.x)
    alphas = [roots[i] for i in idx]
    squares = [Poly.constant(x_q - a) for a in alphas] + [
        Poly([-a, F(1)]) for a in alphas
    ]
    lhs = _ref_mul(_ref_pair(0, 2, 2, 0), _ref_pair(1, 3, 3, 1), squares)
    rhs = _ref_mul(_ref_pair(1, 2, 2, 1), _ref_pair(0, 3, 3, 0), squares)
    elem = dict(lhs)
    for k, v in rhs.items():
        diff = elem.get(k, Poly()) - v * Poly.constant(target)
        if diff.is_zero():
            elem.pop(k, None)
        else:
            elem[k] = diff
    for z_atom in (4, 5, 6, 7):
        flipped = {k: (-v if z_atom in k else v) for k, v in elem.items()}
        elem = _ref_mul(elem, flipped, squares)
    assert all(not k for k in elem)
    return elem.get(frozenset(), Poly())


class TestScaledKernel:
    """cr_elimination_poly runs on integers scaled by D^32 b^16; the
    rational norm product is the oracle, coefficient for coefficient."""

    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            min_size=5,
            max_size=5,
            unique=True,
        ),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
        st.permutations(range(5)),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_rational_norm(self, roots, x_q, target, perm):
        if x_q in roots:
            x_q += F(1, 13)
        if target in (0, 1):
            target = F(-7, 3)
        curve = make_curve(roots)
        q_pt = CurvePoint.affine(x_q, F(1))
        idx = tuple(perm[:4])
        got = cr_elimination_poly(curve, q_pt, idx, target)
        assert got == _reference_elimination(curve, q_pt, idx, target)

    @pytest.mark.parametrize("target", [F(t) for t in range(2, 19)] + [F(-7, 3)])
    def test_g2_at_the_interpolation_nodes(self, target):
        # G2 has D = 48: the roots have denominators 3, 8, 24, 3 and 48
        got = cr_elimination_poly(G2, G2_Q_POLE, (0, 1, 2, 3), target)
        assert got == _reference_elimination(G2, G2_Q_POLE, (0, 1, 2, 3), target)


class TestEliminationInT:
    """The matrix built once per recovery call, with the target as a
    variable, against the rational norm product at each target."""

    @given(
        st.sampled_from([5, 7]).flatmap(
            lambda n: st.lists(
                st.integers(min_value=-9, max_value=9),
                min_size=n,
                max_size=n,
                unique=True,
            )
        ),
        st.lists(
            st.fractions(min_value=-40, max_value=40, max_denominator=30),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_matches_direct_elimination(self, root_ints, targets):
        roots = [F(r) for r in root_ints]
        curve = make_curve(roots)
        q_pt = CurvePoint.affine(max(roots) + 1, F(1))
        idx = (0, 1, 2, 3)
        rows, d = _elimination_matrix(curve, q_pt, idx)
        # the matrix comes with (x - x_Q)^12 divided out
        base_factor = Poly([-q_pt.x, F(1)]) ** 12
        for target in targets:
            if target in (0, 1):
                continue
            got = Poly(_at_target(rows, target)) * base_factor
            reference = _reference_elimination(curve, q_pt, idx, target)
            assert got == reference * Poly.constant(d**32 * target.denominator**16)
            assert rational_roots(got) == rational_roots(reference)

    def test_perturbed_matrix_fails_at_the_base_point(self, monkeypatch):
        # G2 has x_Q = 0, so the constant row of the matrix must vanish
        built = points._norm_matrix

        def perturbed(squares):
            rows = built(squares)
            rows[0][5] += 1
            return rows

        monkeypatch.setattr(points, "_norm_matrix", perturbed)
        spec = IntegralitySpec(ONE_OVER_X, (), 100)
        with pytest.raises(InternalCheckError, match="vanish at x = x_Q"):
            recover_points_detailed(G2, spec, _g2_candidates())
        with pytest.raises(InternalCheckError, match="vanish at x = x_Q"):
            cr_elimination_poly(G2, G2_Q_POLE, (0, 1, 2, 3), F(17, 5))

    def test_curve_polynomial_built_once(self, monkeypatch):
        built = []
        poly = HyperCurve.poly
        monkeypatch.setattr(
            HyperCurve, "poly", lambda self: built.append(self) or poly(self)
        )
        spec = IntegralitySpec(ONE_OVER_X, (), 100)
        recover_points_detailed(G2, spec, _g2_candidates())
        assert built == [G2]

    @pytest.mark.parametrize("count, builds", [(16, 1), (0, 0)])
    def test_eliminations_per_call(self, monkeypatch, count, builds):
        # one matrix whatever the number of targets; none without a target
        seen = []
        direct = points._elimination_matrix

        def counted(*args):
            seen.append(args)
            return direct(*args)

        monkeypatch.setattr(points, "_elimination_matrix", counted)
        spec = IntegralitySpec(ONE_OVER_X, (), 100)
        cands = _g2_candidates(count) if count else CandidateSet(2, ())
        recover_points_detailed(G2, spec, cands)
        assert len(seen) == builds


def _norm_and_stripped(curve, q_pt, idx):
    """The norm matrix before and after _elimination_matrix divides it."""
    built = []
    norm = points._norm_matrix

    def recorded(squares):
        built.append(norm(squares))
        return built[-1]

    with mock.patch.object(points, "_norm_matrix", recorded):
        rows, _ = _elimination_matrix(curve, q_pt, idx)
    return built[0], rows


def _columns(rows):
    return [Poly([F(row[k]) for row in rows]) for k in range(len(rows[0]))]


class TestBaseFactor:
    """(x - x_Q)^12 divides every column of the norm matrix, and
    _elimination_matrix returns the exact quotient."""

    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            min_size=5,
            max_size=5,
            unique=True,
        ),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        st.permutations(range(5)),
        st.sampled_from(["zero", "generic", "indexed root"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_divides_every_column(self, roots, x_q, perm, case):
        curve = make_curve(roots)
        idx = tuple(perm[:4])
        if case == "zero":
            x_q = F(0)
        elif case == "indexed root":
            x_q = curve.rational_roots()[idx[0]]
        q_pt = CurvePoint.affine(x_q, F(1))
        full, rows = _norm_and_stripped(curve, q_pt, idx)
        factor = Poly([F(-x_q.numerator), F(x_q.denominator)]) ** 12
        for col, quot in zip(_columns(full), _columns(rows)):
            assert col == quot * factor

    @pytest.mark.parametrize("x_q", [F(0), F(-1, 3), F(4, 3)])
    def test_order_is_exactly_twelve_on_g2(self, x_q):
        # -1/3 and 4/3 are indexed roots of G2: Weierstrass base points
        q_pt = CurvePoint.affine(x_q, F(1))
        rows, _ = _elimination_matrix(G2, q_pt, (0, 1, 2, 3))
        assert len(rows) == 5
        assert any(col(x_q) for col in _columns(rows))

    def test_g2_targets_past_the_sieve(self, monkeypatch):
        # summed over the sixteen one-model recoveries: 1179 targets, and
        # only 73 polynomials reach the squarefree step
        targets, sqf = 0, []
        gcd = modp._primitive_gcd
        monkeypatch.setattr(
            modp, "_primitive_gcd", lambda a, b: sqf.append(a) or gcd(a, b)
        )
        spec = IntegralitySpec(ONE_OVER_X, (), 100)
        for model in _g2_candidates(16).curves:
            cands = CandidateSet(2, (model,))
            targets += len(_distinct_targets(cands))
            recover_points_detailed(G2, spec, cands)
        assert (targets, len(sqf)) == (1179, 73)


def _recover_per_target(curve, spec, candidates):
    """Recovery with one direct elimination per distinct target."""
    q_pt = points._first_rational_pole(curve, spec.func)
    f = curve.poly()
    targets = {}
    for ci, cand in enumerate(candidates.curves):
        gammas = cand.rational_roots()
        for combo in itertools.permutations(range(len(gammas)), 4):
            target = as_rational(cross_ratio(*(gammas[i] for i in combo)))
            if target not in (0, 1) and target not in targets:
                targets[target] = "candidate %d, roots (%d,%d,%d,%d), cr %s" % (
                    ci,
                    *combo,
                    target,
                )
    found = {}
    for target, via in targets.items():
        poly = cr_elimination_poly(curve, q_pt, (0, 1, 2, 3), target)
        for x_p in rational_roots(poly):
            pts = points._points_above(f, x_p)
            if pts and points._is_s_integral(spec, pts[0]):
                for pt in pts:
                    found.setdefault(points._point_sort_key(pt), (pt, via))
    for pt in exceptional_points(curve, q_pt):
        if is_on_curve(curve, pt) and points._is_s_integral(spec, pt):
            found.setdefault(points._point_sort_key(pt), (pt, "exceptional set"))
    return [found[k] for k in sorted(found)]


def test_genus_three_recovery_matches_per_target_elimination():
    curve, p_pt, q_pt = curve_through_betas([2, 3, 5, 7, F(1, 2), F(1, 3), F(2, 5)])
    spec = IntegralitySpec(ONE_OVER_X, (2, 3, 5, 7), 100)
    tuples = beta_tuples(curve, p_pt, q_pt)
    cands = CandidateSet(3, tuple(prym_curve_equation(t) for t in tuples[:2]))
    detail = recover_points_detailed(curve, spec, cands)
    assert detail == _recover_per_target(curve, spec, cands)
    assert (p_pt, "candidate 0, roots (0,1,2,4), cr 5/3") in detail


def _targets_by_loop(candidates):
    """Target enumeration over unscaled roots, one cross_ratio per
    permutation."""
    targets = {}
    for ci, cand in enumerate(candidates.curves):
        gammas = cand.rational_roots()
        for combo in itertools.permutations(range(len(gammas)), 4):
            target = as_rational(cross_ratio(*(gammas[i] for i in combo)))
            if target not in (0, 1) and target not in targets:
                targets[target] = "candidate %d, roots (%d,%d,%d,%d), cr %s" % (
                    ci,
                    *combo,
                    target,
                )
    return targets


def test_target_enumeration_matches_unscaled_loop():
    g2 = _g2_candidates(16)
    curve, p_pt, q_pt = curve_through_betas([2, 3, 5, 7, F(1, 2), F(1, 3), F(2, 5)])
    g3 = CandidateSet(
        3, tuple(prym_curve_equation(t) for t in beta_tuples(curve, p_pt, q_pt))
    )
    assert len(g2.curves) == 16 and len(g3.curves) == 64
    for cands in (g2, g3):
        got = list(_distinct_targets(cands).items())
        assert got == list(_targets_by_loop(cands).items())


class TestExceptionalPoints:
    def test_contents(self):
        pts = exceptional_points(G2, G2_Q_POLE)
        affine = {(p.x, p.y) for p in pts if not p.at_infinity}
        assert (F(-1, 3), F(0)) in affine
        assert (F(0), F(-35, 48)) in affine
        assert (F(0), F(35, 48)) in affine
        assert any(p.at_infinity for p in pts)
        assert len([p for p in pts if not p.at_infinity]) == 7


class TestRecovery:
    def test_marked_points_recovered(self):
        spec = IntegralitySpec(ONE_OVER_X, (), 100)
        detail = recover_points_detailed(G2, spec, _g2_candidates())
        coords = {(p.x, p.y) for p, _ in detail if not p.at_infinity}
        assert (F(1), F(1, 144)) in coords
        assert (F(1), F(-1, 144)) in coords

    def test_provenance_strings(self):
        spec = IntegralitySpec(ONE_OVER_X, (), 100)
        detail = recover_points_detailed(G2, spec, _g2_candidates(16))
        via = "candidate 0, roots (0,2,5,4), cr -3/2"
        assert detail == [
            (CurvePoint.affine(F(-1, 3), 0), "exceptional set"),
            (CurvePoint.affine(1, F(-1, 144)), via),
            (CurvePoint.affine(1, F(1, 144)), via),
            (CurvePoint.infinity(), "exceptional set"),
        ]

    def test_recover_points_is_projection(self):
        spec = IntegralitySpec(ONE_OVER_X, (), 100)
        detail = recover_points_detailed(G2, spec, _g2_candidates())
        assert recover_points(G2, spec, _g2_candidates()) == [
            p for p, _ in detail
        ]

    def test_soundness_of_every_returned_point(self):
        spec = IntegralitySpec(ONE_OVER_X, (), 100)
        for pt in recover_points(G2, spec, _g2_candidates(16)):
            if pt.at_infinity:
                continue
            assert is_on_curve(G2, pt)
            val = as_rational(spec.func.value_at(pt.x))
            assert val.denominator == 1

    def test_empty_candidate_set_leaves_exceptional_survivors(self):
        spec = IntegralitySpec(ONE_OVER_X, (), 100)
        detail = recover_points_detailed(G2, spec, CandidateSet(2, ()))
        assert all(via == "exceptional set" for _, via in detail)
        coords = {(p.x, p.y) for p, _ in detail if not p.at_infinity}
        # the pole pair is excluded by integrality, the marked point unseen
        assert coords == {(F(-1, 3), F(0))}

    def test_brute_force_agreement(self):
        # everything the box search finds away from the exceptional set must
        # be rediscovered through the candidate cross-ratios
        spec = IntegralitySpec(ONE_OVER_X, (), 60)
        recovered = {
            (p.x, p.y)
            for p in recover_points(G2, spec, _g2_candidates())
            if not p.at_infinity
        }
        skip = {
            (p.x, p.y)
            for p in exceptional_points(G2, G2_Q_POLE)
            if not p.at_infinity
        }
        for pt in brute_force_points(G2, spec):
            if (pt.x, pt.y) in skip:
                continue
            assert (pt.x, pt.y) in recovered

    def test_low_genus_rejected(self):
        elliptic = make_curve([F(0), F(1), F(2)])
        spec = IntegralitySpec(ONE_OVER_X, (), 10)
        with pytest.raises(ValueError, match="genus at least 2"):
            recover_points(elliptic, spec, CandidateSet(1, ()))

    def test_candidate_genus_must_match(self):
        spec = IntegralitySpec(ONE_OVER_X, (), 10)
        with pytest.raises(ValueError, match="does not match"):
            recover_points(G2, spec, CandidateSet(3, ()))

    def test_no_rational_pole(self):
        func = RatFunc(Poly.constant(1), Poly([F(1), F(0), F(1)]))
        spec = IntegralitySpec(func, (), 10)
        with pytest.raises(ValueError, match="no rational affine pole"):
            recover_points(G2, spec, CandidateSet(2, ()))


_small_rationals = st.builds(
    F, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
)


@given(
    st.lists(
        _small_rationals.filter(lambda b: b not in (0, 1, -1)),
        min_size=5,
        max_size=5,
        unique_by=lambda b: b * b,
    ),
    st.one_of(st.just(F(0)), _small_rationals.filter(bool)),
)
@settings(max_examples=30, deadline=None)
def test_recovery_closes_on_random_instances(betas, x_q):
    # P is S-integral for f = 1/(x - x_Q) with S the primes of x_P - x_Q,
    # so recovery over the instance's own sixteen Prym models must find it
    curve, p_pt, q_pt = curve_through_betas(betas, x_q=x_q)
    diff = p_pt.x - x_q
    s_primes = set(factorize(diff.numerator)) | set(factorize(diff.denominator))
    func = RatFunc(Poly.constant(1), Poly([-x_q, F(1)]))
    spec = IntegralitySpec(func, tuple(s_primes), 100)
    models = [prym_curve_equation(t) for t in beta_tuples(curve, p_pt, q_pt)]
    assert p_pt in recover_points(curve, spec, CandidateSet(2, tuple(models)))
