"""Langlands parameters, duals, arrangements and crossing times."""

from fractions import Fraction

import pytest

from sigzero.blocks import (
    SL2C_CARTAN,
    SL2R_SPLIT,
    sl2c_param,
    sl2r_ds_param,
    sl2r_ps_param,
)
from sigzero.errors import GroupTooLarge
from sigzero.params import (
    DiscreteParam,
    LanglandsParam,
    c_hermitian_dual,
    crossing_times,
    frac_str,
    hermitian_dual,
    hermitian_exists,
    hyperplanes,
    param_from_json,
    param_to_json,
    parse_frac,
    reduce_to_real,
)

F = Fraction


def test_parse_frac():
    assert parse_frac("3/2") == F(3, 2)
    assert parse_frac("-7") == F(-7)
    assert parse_frac(2) == F(2)
    for bad in ("1.5", "3/0", "3/-2", "a", ""):
        with pytest.raises(ValueError):
            parse_frac(bad)


def test_frac_str_round_trip():
    for x in (F(0), F(3, 2), F(-7, 3), F(5)):
        assert parse_frac(frac_str(x)) == x


def test_discrete_param_final_consistency():
    with pytest.raises(ValueError):
        DiscreteParam(
            cartan="split", dlambda=(F(0),), grading={0: -1}, final=True
        )


def test_nonspherical_zero_nu_is_the_formal_limit():
    # the nonfinal standard at nu = 0 must be constructible: it is the
    # deformation endpoint rewritten by hs_rewrite
    g = sl2r_ps_param(1, 0)
    assert not g.discrete.final
    with pytest.raises(ValueError):
        sl2r_ps_param(1, F(1, 2)).discrete and LanglandsParam(
            sl2r_ps_param(1, F(1, 2)).discrete, (F(0),)
        ).validate_continuous(SL2R_SPLIT)


def test_duals_on_real_parameters():
    g = sl2r_ps_param(0, F(3, 2))
    assert hermitian_dual(g).nu == (F(-3, 2),)
    assert c_hermitian_dual(g) == g


def test_param_key_hashable_and_stable():
    g = sl2r_ps_param(0, F(3, 2))
    h = sl2r_ps_param(0, F(3, 2))
    assert g == h
    assert hash(g) == hash(h)
    assert g != sl2r_ps_param(1, F(3, 2))


def test_hermitian_exists_sl2r():
    # W = {1, -1} acting on the one-dimensional a*; -1 sends nu to -nu
    g = sl2r_ps_param(0, F(3, 2))
    assert hermitian_exists(g, [((-1,),)])
    # without the reflection there is no Weyl element negating nu
    assert not hermitian_exists(g, [((1,),)])


def test_hermitian_exists_group_bound():
    # a non-terminating generator set of infinite order trips the bound
    g = sl2c_param(0, 1)
    with pytest.raises(GroupTooLarge):
        hermitian_exists(g, [((1, 1), (0, 1))], bound=50)


def test_reduce_to_real_is_identity_on_real_parameters():
    g = sl2r_ps_param(0, F(3, 2))
    levi, reduced = reduce_to_real(g, coroots=((1,),))
    assert reduced == g
    assert levi == (0,)


def test_hyperplane_levels_positive():
    for d, cart in (
        (sl2r_ps_param(0, 1).discrete, SL2R_SPLIT),
        (sl2r_ps_param(1, 1).discrete, SL2R_SPLIT),
        (sl2c_param(3, 1).discrete, SL2C_CARTAN),
        (sl2c_param(0, 1).discrete, SL2C_CARTAN),
    ):
        for h in hyperplanes(d, cart, 6):
            assert h.level > 0


def test_hyperplanes_sl2r_parities():
    sph = hyperplanes(sl2r_ps_param(0, 1).discrete, SL2R_SPLIT, 5)
    red = [h.level for h in sph if h.kind == "reducibility"]
    reo = [h.level for h in sph if h.kind == "reorient_positive"]
    assert red == [1, 3, 5]
    assert reo == [2, 4]
    ns = hyperplanes(sl2r_ps_param(1, 1).discrete, SL2R_SPLIT, 5)
    red = [h.level for h in ns if h.kind == "reducibility"]
    assert red == [2, 4]


def test_hyperplanes_sl2c_half_levels():
    walls = hyperplanes(sl2c_param(3, 1).discrete, SL2C_CARTAN, 3)
    assert [h.level for h in walls] == [F(1, 2), F(3, 2), F(5, 2)]
    assert all(h.kind == "reducibility" for h in walls)


def test_crossing_times_descending():
    g = sl2r_ps_param(0, F(7, 2))
    assert crossing_times(g, SL2R_SPLIT) == [F(6, 7), F(2, 7)]
    g = sl2r_ps_param(0, 3)
    assert crossing_times(g, SL2R_SPLIT) == [F(1), F(1, 3)]
    g = sl2r_ps_param(1, F(5, 2))
    assert crossing_times(g, SL2R_SPLIT) == [F(4, 5)]
    assert crossing_times(sl2r_ds_param(1, 2), SL2R_SPLIT) == []


def test_crossing_times_sl2c():
    g = sl2c_param(1, 3)
    # ell_alpha = 1/2, level 3/2: q = n - 1/2 for n = 1 gives t = 1/3, and
    # the wall at the point itself t = 1
    assert crossing_times(g, SL2C_CARTAN) == [F(1), F(1, 3)]


def test_param_json_round_trip():
    for g in (
        sl2r_ps_param(0, F(3, 2)),
        sl2r_ps_param(1, 2),
        sl2r_ds_param(-1, 3),
        sl2c_param(3, 1),
    ):
        assert param_from_json(param_to_json(g)) == g
