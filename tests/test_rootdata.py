"""Root datum, involution, length and orientation-number tests on the two
built-in models."""

from fractions import Fraction

import pytest

from sigzero.blocks import (
    SL2C_CARTAN,
    SL2C_DATUM,
    SL2R_COMPACT,
    SL2R_DATUM,
    SL2R_SPLIT,
)
from sigzero.errors import InvalidInvolution
from sigzero.rootdata import (
    Involution,
    RootDatum,
    classify_roots,
    dot,
    length,
    norm_sq,
    orientation_number,
)

F = Fraction


def test_dot_and_norm():
    assert dot((2,), (1,)) == 2
    assert norm_sq((F(3, 2), F(-3, 2))) == F(9, 2)


def test_datum_negation_closure():
    assert SL2R_DATUM.rank == 1
    assert len(SL2R_DATUM.roots) == 2
    assert len(SL2C_DATUM.roots) == 4


def test_involution_must_permute_roots():
    with pytest.raises(InvalidInvolution):
        Involution(((2,),)).validate(SL2R_DATUM)
    Involution(((-1,),)).validate(SL2R_DATUM)


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
    assert length(SL2R_DATUM, SL2R_COMPACT.theta, rc_c, (2,)) == 0
    # split principal series at integral dgamma: one real integral A1
    assert length(SL2R_DATUM, SL2R_SPLIT.theta, rc_s, (2,)) == 1
    # nonintegral dgamma: empty integral system
    assert length(SL2R_DATUM, SL2R_SPLIT.theta, rc_s, (F(3, 2),)) == 0


def test_length_sl2c_chain():
    rc = classify_roots(SL2C_DATUM, SL2C_CARTAN.theta)
    # parameter (m,v) = (3,1): lower element dgamma = (2,1), upper (2,-1)
    # after the (1,3) swap; the built-in chain has lengths 0 and 1
    lo = length(SL2C_DATUM, SL2C_CARTAN.theta, rc, (2, 1))
    hi = length(SL2C_DATUM, SL2C_CARTAN.theta, rc, (2, -1))
    assert (lo, hi) == (0, 1)


def _orient_sph(nu):
    return orientation_number(
        SL2R_DATUM, SL2R_SPLIT.theta, {0: 1}, (F(0),), (F(nu),)
    )


def _orient_ns(nu):
    return orientation_number(
        SL2R_DATUM, SL2R_SPLIT.theta, {0: -1}, (F(0),), (F(nu),)
    )


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
        SL2C_DATUM, SL2C_CARTAN.theta, {}, (F(0), F(0)), (F(3, 2), F(-3, 2))
    )
    assert n == 1
    # integral continuous parameter: no contribution
    n = orientation_number(
        SL2C_DATUM, SL2C_CARTAN.theta, {}, (F(3, 2), F(3, 2)), (F(1, 2), F(-1, 2))
    )
    assert n == 0
