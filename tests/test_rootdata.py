"""Root datum, involution, length and orientation-number tests on the two
built-in models, against a Fraction reference that applies theta itself."""

from fractions import Fraction

import pytest

from sigzero.blocks import (
    SL2C_CARTAN,
    SL2C_DATUM,
    SL2R_COMPACT,
    SL2R_DATUM,
    SL2R_SPLIT,
    builtin_block,
    group_model,
)
from sigzero.errors import InvalidInvolution, UnsupportedRealSystem
from sigzero.rootdata import (
    Involution,
    RootDatum,
    classify_roots,
    dot,
    length,
    orientation_number,
)

F = Fraction


def test_dot_and_norm():
    assert dot((2,), (1,)) == 2


def test_dot_is_a_fraction_whenever_an_entry_is_one():
    for u, v, want in (((F(2),), (F(1),), 2), ((F(1, 2), F(3)), (F(2), F(1, 3)), 2),
                       ((F(3, 2),), (1,), F(3, 2)), ((2, F(1, 4)), (1, 2), F(5, 2))):
        got = dot(u, v)
        assert type(got) is Fraction and got == want
    assert type(dot((2, 3), (1, 1))) is int and dot((2, 3), (1, 1)) == 5


def test_datum_negation_closure():
    assert SL2R_DATUM.rank == 1
    assert len(SL2R_DATUM.roots) == 2
    assert len(SL2C_DATUM.roots) == 4


def test_root_datum_rank_is_the_number_of_coordinates():
    for roots, coroots in ((((2,), (-2,)), ((1,), (-1,))),
                           (((2, 0), (-2, 0)), ((1,), (-1,)))):
        with pytest.raises(ValueError) as err:
            RootDatum(rank=2, roots=roots, coroots=coroots)
        assert str(err.value) == "roots and coroots need 2 coordinates each"
    assert RootDatum(rank=1, roots=((2,), (-2,)), coroots=((1,), (-1,))) == SL2R_DATUM


def test_involution_must_permute_roots():
    with pytest.raises(InvalidInvolution):
        Involution(((2,),)).validate(SL2R_DATUM)
    Involution(((-1,),)).validate(SL2R_DATUM)


def test_root_datum_refusals():
    for roots, coroots, text in (
            (((2,), (-2,)), ((1,),), "roots and coroots must be in bijection"),
            (((2,), (-2,)), ((2,), (-2,)), "pairing <alpha, alpha^vee> != 2 at index 0"),
            (((2,), (2,)), ((1,), (1,)), "root set not closed under negation")):
        with pytest.raises(ValueError) as err:
            RootDatum(rank=1, roots=roots, coroots=coroots)
        assert str(err.value) == text


def test_involution_validate_refusals():
    # theta of the wrong shape, and an involution sending (0, 2) to (2, -2)
    for theta, text in ((((1, 0),), "theta has wrong shape"),
                        (((1, 1), (0, -1)), "theta does not permute the roots")):
        with pytest.raises(InvalidInvolution) as err:
            Involution(theta).validate(SL2C_DATUM)
        assert str(err.value) == text


def test_classify_roots_kinds():
    rc = classify_roots(SL2R_DATUM, SL2R_COMPACT.theta)
    assert rc.tags == ("imaginary", "imaginary")
    rc = classify_roots(SL2R_DATUM, SL2R_SPLIT.theta)
    assert rc.real_indices() == (0, 1)
    rc = classify_roots(SL2C_DATUM, SL2C_CARTAN.theta)
    assert len(rc.complex_indices()) == 4


def test_length_sl2r():
    rc_c = classify_roots(SL2R_DATUM, SL2R_COMPACT.theta)
    rc_s = classify_roots(SL2R_DATUM, SL2R_SPLIT.theta)
    # discrete series: compact Cartan, no complex pairs, no real roots
    assert length(SL2R_DATUM, rc_c, (2,)) == 0
    # split principal series at integral dgamma: one real integral A1
    assert length(SL2R_DATUM, rc_s, (2,)) == 1
    # nonintegral dgamma: empty integral system
    assert length(SL2R_DATUM, rc_s, (F(3, 2),)) == 0


def test_length_sl2c_chain():
    rc = classify_roots(SL2C_DATUM, SL2C_CARTAN.theta)
    # parameter (m,v) = (3,1): lower element dgamma = (2,1), upper (2,-1)
    # after the (1,3) swap; the built-in chain has lengths 0 and 1
    lo = length(SL2C_DATUM, rc, (2, 1))
    hi = length(SL2C_DATUM, rc, (2, -1))
    assert (lo, hi) == (0, 1)


def _orient_sph(nu):
    return orientation_number(
        SL2R_DATUM, SL2R_SPLIT.root_class, {0: 1}, (F(nu),)
    )


def _orient_ns(nu):
    return orientation_number(
        SL2R_DATUM, SL2R_SPLIT.root_class, {0: -1}, (F(nu),)
    )


def test_length_rejects_real_system_beyond_a1():
    # split A2: roots e_i - e_j in Z^3, theta = -I, so every root is real
    # and at (1, 0, -1) all three positive roots are integral
    roots = [tuple(int(k == i) - int(k == j) for k in range(3))
             for i in range(3) for j in range(3) if i != j]
    rd = RootDatum(rank=3, roots=roots, coroots=roots)
    rc = classify_roots(rd, Involution(((-1, 0, 0), (0, -1, 0), (0, 0, -1))))
    assert set(rc.tags) == {"real"}
    with pytest.raises(UnsupportedRealSystem, match="product of A1"):
        length(rd, rc, (1, 0, -1))


def test_orientation_number_real_rule():
    # spherical grading +1: counted on even integer-part windows
    assert _orient_sph(F(1, 2)) == 1
    assert _orient_sph(F(3, 2)) == 0
    assert _orient_sph(F(5, 2)) == 1
    # integral points never count
    assert _orient_sph(1) == 0
    assert _orient_sph(2) == 0
    # nonspherical grading -1: the opposite windows
    assert _orient_ns(F(1, 2)) == 0
    assert _orient_ns(F(3, 2)) == 1
    assert _orient_ns(F(5, 2)) == 0


def test_orientation_jump_across_reorienting_wall():
    # the reorienting walls for the spherical grading are the even levels;
    # crossing one changes the orientation number by exactly 1
    for wall in (2, 4):
        below = _orient_sph(F(wall) - F(1, 4))
        above = _orient_sph(F(wall) + F(1, 4))
        assert abs(above - below) == 1


def test_orientation_number_complex_pair():
    # sl2c parameter (0,3): dlambda = 0, nu = (3/2,-3/2); the (2,0)/(0,2)
    # theta-pair is nonintegral on one side and contributes once
    n = orientation_number(
        SL2C_DATUM, SL2C_CARTAN.root_class, {}, (F(3, 2), F(-3, 2))
    )
    assert n == 1
    # integral continuous parameter: no contribution
    n = orientation_number(
        SL2C_DATUM, SL2C_CARTAN.root_class, {}, (F(2), F(1))
    )
    assert n == 0


# ---------------------------------------------------------------------------
# reference: Fraction pairings through dot, theta applied root by root

def _ref_neg_theta(rd, inv, i):
    return rd.roots.index(tuple(-x for x in inv.apply(rd.roots[i])))


def _ref_length(rd, inv, rc, dgamma):
    pos = set()
    for i, root in enumerate(rd.roots):
        v = dot(dgamma, rd.coroots[i])
        if v > 0 or (v == 0 and next(x for x in root if x != 0) > 0):
            pos.add(i)
    pairs = {
        frozenset((i, _ref_neg_theta(rd, inv, i)))
        for i in pos
        if rc.tags[i] == "complex" and _ref_neg_theta(rd, inv, i) in pos
    }
    real_integral = [
        i for i in pos
        if rc.tags[i] == "real" and dot(dgamma, rd.coroots[i]).denominator == 1
    ]
    return len(pairs) + len(real_integral)


def _ref_orient(rd, inv, rc, grading, gamma):
    count = 0
    seen = set()
    for i, tag in enumerate(rc.tags):
        v = dot(gamma, rd.coroots[i])
        if v <= 0 or v.denominator == 1:
            continue
        if tag == "complex":
            j = _ref_neg_theta(rd, inv, i)
            if frozenset((i, j)) not in seen and dot(gamma, rd.coroots[j]) > 0:
                seen.add(frozenset((i, j)))
                count += 1
        elif tag == "real":
            parity = (v.numerator // v.denominator) % 2
            if parity == (0 if grading.get(i, 1) == 1 else 1):
                count += 1
    return count


def _grid(top):
    return sorted({F(p, q) for q in (1, 2, 3, 4) for p in range(top * q + 1)})


def test_builtin_elements_match_reference():
    queries = [("sl2r", (k,)) for k in _grid(12)]
    queries += [("sl2c", (m, v)) for m in range(5) for v in _grid(12)]
    ref_rc = {
        cart: classify_roots(group_model(group).datum, cart.theta)
        for group in ("sl2r", "sl2c")
        for cart in group_model(group).cartans
    }
    assert all(cart.root_class == rc for cart, rc in ref_rc.items())
    n = 0
    for group, ic in queries:
        model = group_model(group)
        for blk in builtin_block(group, ic):
            for e in blk.elements:
                cart = model.cartans[e.cartan]
                args = (model.datum, cart.theta, ref_rc[cart])
                d = e.param.discrete
                gamma = tuple(a + b for a, b in zip(d.dlambda, e.param.nu))
                assert e.length == _ref_length(*args, gamma), (group, ic, e)
                assert e.orient == _ref_orient(*args, d.grading, gamma), (group, ic, e)
                n += 1
    assert n > 500


# rank 1 with alpha^vee = 2 alpha, and rank 2 with every coroot twice its
# root: the integer pairings must read the coroots, not the roots
PAIRED_1 = RootDatum(rank=1, roots=((1,), (-1,)), coroots=((2,), (-2,)))
PAIRED_2 = RootDatum(
    rank=2,
    roots=((1, 0), (-1, 0), (0, 1), (0, -1)),
    coroots=((2, 0), (-2, 0), (0, 2), (0, -2)),
)


@pytest.mark.parametrize(
    "rd,theta,gammas",
    [
        (PAIRED_1, ((-1,),), [(F(p, 4),) for p in range(-9, 10)]),
        (PAIRED_1, ((1,),), [(F(p, 4),) for p in range(-9, 10)]),
        (PAIRED_2, ((0, 1), (1, 0)),
         [(F(a, 4), F(b, 3)) for a in range(-5, 6) for b in range(-4, 5)]),
    ],
)
def test_pairing_matrix(rd, theta, gammas):
    inv = Involution(theta)
    rc = classify_roots(rd, inv)
    for gamma in gammas:
        nums, q = rd.pairings(gamma)
        assert [F(n, q) for n in nums] == [dot(gamma, c) for c in rd.coroots]
        assert length(rd, rc, gamma) == _ref_length(rd, inv, rc, gamma), gamma
        for grading in ({0: 1, 1: 1}, {0: -1, 1: -1}):
            assert orientation_number(rd, rc, grading, gamma) == _ref_orient(
                rd, inv, rc, grading, gamma), (gamma, grading)


def test_pairing_reads_the_coroots():
    rc = classify_roots(PAIRED_1, Involution(((-1,),)))
    # <(3/4), alpha^vee> = 3/2: integer part 1, not counted for grading +1
    assert orientation_number(PAIRED_1, rc, {0: 1}, (F(3, 4),)) == 0
    # <(1/2), alpha^vee> = 1: a real integral root
    assert length(PAIRED_1, rc, (F(1, 2),)) == 1
