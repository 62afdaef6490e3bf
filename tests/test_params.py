"""Langlands parameters, arrangements and crossing times."""

import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

import sigzero
from sigzero.blocks import (
    SL2C_CARTAN,
    SL2R_SPLIT,
    Block,
    BlockElement,
    BlockProvider,
    builtin_block,
    parse_block,
    serialize_block,
    sl2c_param,
    sl2r_ds_param,
    sl2r_ps_param,
)
from sigzero.errors import InvariantViolation, SchemaError
from sigzero.sigengine import deform_to_zero, unitary_test
from sigzero.params import (
    CartanClass,
    DiscreteParam,
    LanglandsParam,
    RestrictedRoot,
    _walls_below,
    crossing_times,
    frac_str,
    hyperplanes,
    param_from_json,
    param_to_json,
    parse_frac,
)

F = Fraction


def test_parse_frac():
    assert parse_frac("3/2") == F(3, 2)
    assert parse_frac("-7") == F(-7)
    assert parse_frac(2) == F(2)
    for bad in ("1.5", "3/0", "3/-2", "a", ""):
        with pytest.raises(ValueError):
            parse_frac(bad)


@seed(28)
@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"-?\d+(/[1-9]\d*)?", fullmatch=True), st.sampled_from(["", " ", "\t"]))
def test_parse_frac_agrees_with_fraction(text, pad):
    assert parse_frac(pad + text + pad) == Fraction(text)


@pytest.mark.parametrize("bad", ["1/0", "1.5", "+3", "3/-2", True, 1.5, None])
def test_parse_frac_rejects_inexact_or_malformed(bad):
    with pytest.raises(ValueError):
        parse_frac(bad)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit in this Python")
@pytest.mark.parametrize("text", ["9" * 5000, "-9" + "9" * 5000, "1/" + "9" * 5000])
def test_parse_frac_rejects_digits_past_the_limit(text):
    with pytest.raises(ValueError):
        parse_frac(text)
    obj = json.loads(serialize_block(builtin_block("sl2r", (2,))[0]))
    obj["elements"][2]["param"]["nu"] = [text]
    with pytest.raises(SchemaError):
        parse_block(json.dumps(obj))


def test_frac_str_round_trip():
    for x in (F(0), F(3, 2), F(-7, 3), F(5)):
        assert parse_frac(frac_str(x)) == x


def test_frac_str_refuses_floats():
    # a float is not printed at its binary value, nor a decimal string read
    assert frac_str(5) == "5" and frac_str("-6/4") == "-3/2"
    for x in (0.1, 0.5, "0.5"):
        with pytest.raises(ValueError, match="^not an exact rational: "):
            frac_str(x)


def test_discrete_param_final_consistency():
    with pytest.raises(ValueError):
        DiscreteParam(
            cartan="split", dlambda=(F(0),), grading={0: -1}, final=True
        )


def test_discrete_param_checks_keep_their_texts():
    # the grading values are checked first, then finality, then the parity bit
    cases = [
        (dict(grading={0: 2}), "grading values must be +-1 (root 0)"),
        (dict(grading={3: 0}, final=False, ktype_parity=7),
         "grading values must be +-1 (root 3)"),
        (dict(grading={0: -1}),
         "final discrete parameter must have grading +1 on every real root"),
        (dict(grading={0: -1}, ktype_parity=2),
         "final discrete parameter must have grading +1 on every real root"),
        (dict(ktype_parity=2), "ktype_parity must be 0, 1, or None"),
        (dict(grading={0: -1}, final=False, ktype_parity=-1),
         "ktype_parity must be 0, 1, or None"),
    ]
    for kwargs, text in cases:
        with pytest.raises(ValueError) as err:
            DiscreteParam("split", (F(0),), **kwargs)
        assert str(err.value) == text, kwargs


def test_discrete_param_refuses_bools_and_floats():
    # True equals and hashes like 1, and 1 like True: either would pass as
    # the canonical value, yet param_to_json would print it as it came
    cases = [
        (dict(grading={0: True}), "grading values must be +-1 (root 0)"),
        (dict(grading={0: -1.0}, final=False), "grading values must be +-1 (root 0)"),
        (dict(grading={0: 2}, final=1), "grading values must be +-1 (root 0)"),
        (dict(final=1), "final must be a boolean (got 1)"),
        (dict(final=1, ktype_parity=2), "final must be a boolean (got 1)"),
        (dict(ktype_parity=True), "ktype_parity must be 0, 1, or None"),
        (dict(ktype_parity=0.0), "ktype_parity must be 0, 1, or None"),
    ]
    for kwargs, text in cases:
        with pytest.raises(ValueError) as err:
            DiscreteParam("split", (F(0),), **kwargs)
        assert str(err.value) == text, kwargs
    with pytest.raises(ValueError, match="^parity must be 0 or 1$"):
        sl2r_ps_param(True, F(3, 2))
    with pytest.raises(ValueError, match="^discrete series needs sign"):
        sl2r_ds_param(True, 3)


def test_params_keep_their_defaults_repr_and_frozen_fields():
    grading = {0: 1}
    d = DiscreteParam("split", (0,), grading)
    grading[0] = -1
    # dlambda becomes Fractions and the grading a dict of its own
    assert (d.dlambda, d.grading, d.imaginary_grading, d.final, d.ktype_parity) == (
        (F(0),), {0: 1}, None, True, None)
    assert type(d.dlambda[0]) is F and type(d.grading) is dict
    assert DiscreteParam("split", (0,)).grading == {}
    assert DiscreteParam("split", (0,)) != d
    g = sl2c_param(3, F(5, 2))
    assert repr(g) == (
        "LanglandsParam(discrete=DiscreteParam(cartan='complex', dlambda=(Fraction(3, 2), "
        "Fraction(3, 2)), grading={}, imaginary_grading=None, final=True, "
        "ktype_parity=None), nu=(Fraction(5, 4), Fraction(-5, 4)), nu_im=None)")
    assert g.gamma == (F(11, 4), F(1, 4)) and F(*g.discrete.dlambda_sq) == F(9, 2)
    for obj, name in ((g, "nu"), (g.discrete, "final")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)


def test_nonspherical_zero_nu_is_the_formal_limit():
    # the nonfinal standard at nu = 0 must be constructible: it is the
    # deformation endpoint rewritten by hs_rewrite
    g = sl2r_ps_param(1, 0)
    assert not g.discrete.final


def test_param_key_hashable_and_stable():
    g = sl2r_ps_param(0, F(3, 2))
    h = sl2r_ps_param(0, F(3, 2))
    assert g == h
    assert hash(g) == hash(h)
    assert g != sl2r_ps_param(1, F(3, 2))


def test_zero_nu_im_is_stored_as_none():
    g = sl2r_ps_param(0, F(3, 2))
    z = LanglandsParam(g.discrete, g.nu, (F(0),))
    assert z.nu_im is None and z.is_real()
    assert z == g and hash(z) == hash(g)
    assert param_from_json(dict(param_to_json(g), nu_im=["0"])) == g
    assert not LanglandsParam(g.discrete, g.nu, (F(1, 2),)).is_real()


def test_nu_im_length_must_match_nu():
    g = sl2r_ps_param(0, F(3, 2))
    for nu_im in ((F(1, 2), F(3)), (F(0), F(0)), ()):
        with pytest.raises(ValueError, match="one length"):
            LanglandsParam(g.discrete, g.nu, nu_im)


@pytest.mark.parametrize("key", ["00", " +0 ", "0_0", "+0", "-0", "\u0660", "", 0])
def test_grading_keys_are_plain_decimal_root_indices(key):
    raw = param_to_json(sl2r_ps_param(1, 5))
    assert param_from_json(dict(raw, grading={"0": -1}))
    for bad in (dict(raw, grading={key: -1}), dict(raw, grading={"0": 1, key: -1}),
                dict(raw, imaginary_grading={key: "noncompact"})):
        with pytest.raises(ValueError, match="grading keys must be root indices"):
            param_from_json(bad)


def test_param_vectors_are_checked_where_the_param_is_built():
    g = sl2r_ps_param(0, F(3, 2))
    raw = param_to_json(g)
    # a JSON string is not a list: "12" is not read as the coordinates 1, 2
    for bad in (dict(raw, dlambda="12"), dict(raw, nu="3"), dict(raw, nu_im="0"),
                dict(raw, dlambda=[], nu=[]), dict(raw, nu=[]),
                dict(raw, nu=["3/2", "1"])):
        with pytest.raises(ValueError):
            param_from_json(bad)
    with pytest.raises(ValueError, match="dlambda and nu need one length"):
        LanglandsParam(g.discrete, (F(1), F(2)))


# pickles the parameter PS+(7/2), its discrete part and the parameter's hash
_PICKLER = """
import pickle, sys
from fractions import Fraction
from sigzero.blocks import sl2r_ps_param
g = sl2r_ps_param(0, Fraction(7, 2))
sys.stdout.buffer.write(pickle.dumps((hash(g), g, g.discrete)))
"""


def test_unpickled_params_hash_as_this_process_does():
    # a parameter's hash reads the string hash of its Cartan's name, which
    # varies by process: a parameter pickled elsewhere must be hashed anew
    g = sl2r_ps_param(0, F(7, 2))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sigzero.__file__)))
    their_hashes = set()
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _PICKLER], env=env,
                             capture_output=True, check=True).stdout
        their_hash, loaded, discrete = pickle.loads(out)
        their_hashes.add(their_hash)
        for fresh, back in ((g, loaded), (g.discrete, discrete)):
            assert back == fresh and hash(back) == hash(fresh)
            assert {fresh: 1}.get(back) == 1
    assert len(their_hashes) == 2


# loads PS+(7/2) and its discrete part from stdin and checks them against
# ones built here: equal, with equal hashes, and a key of the memo
_UNPICKLER = """
import pickle, sys
from fractions import Fraction
from sigzero.blocks import BlockProvider, sl2r_ps_param
from sigzero.sigengine import deform_to_zero
g, discrete = pickle.loads(sys.stdin.buffer.read())
fresh = sl2r_ps_param(0, Fraction(7, 2))
assert (g, discrete) == (fresh, fresh.discrete)
assert (hash(g), hash(discrete)) == (hash(fresh), hash(fresh.discrete))
provider = BlockProvider()
deform_to_zero(g, provider)
assert provider.deformation(("sl2r", fresh)) is not None
print("ok")
"""


def test_params_pickled_here_load_under_another_hash_seed():
    g = sl2r_ps_param(0, F(7, 2))
    data = pickle.dumps((g, g.discrete))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sigzero.__file__)))
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _UNPICKLER], env=env, input=data,
                             capture_output=True)
        assert out.stdout == b"ok\n", out.stderr.decode()


def test_restricted_root_refusals():
    with pytest.raises(ValueError, match="^restricted root kind must be real or complex$"):
        RestrictedRoot((F(1),), "imaginary")
    with pytest.raises(ValueError, match="^restricted root covector must be nonzero$"):
        RestrictedRoot((F(0), F(0)), "real")


def test_hyperplanes_radius_is_inclusive():
    # complex walls at level == radius count, as real walls always did
    walls = hyperplanes(sl2c_param(0, 1).discrete, SL2C_CARTAN, 6)
    assert [h.level for h in walls] == [F(n) for n in range(1, 7)]
    walls = hyperplanes(sl2c_param(3, 1).discrete, SL2C_CARTAN, F(7, 2))
    assert walls[-1].level == F(7, 2)
    walls = hyperplanes(sl2r_ps_param(0, 1).discrete, SL2R_SPLIT, 6)
    assert walls[-1].level == 6


def test_hyperplanes_radius_is_an_exact_rational():
    # a float or a decimal string is refused, as by every other reader
    d = sl2r_ps_param(0, 1).discrete
    for radius in (2.5, 0.5, "0.5", "2.5"):
        with pytest.raises(ValueError, match="^not an exact rational: "):
            hyperplanes(d, SL2R_SPLIT, radius)
    assert hyperplanes(d, SL2R_SPLIT, "5/2") == hyperplanes(d, SL2R_SPLIT, F(5, 2))
    assert [h.level for h in hyperplanes(d, SL2R_SPLIT, "5/2")] == [1, 2]


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


def test_walls_below_counts_the_crossing_times_below_one():
    # the count that the wall-point flip of unitary_test reads, against its
    # definition, on and off the walls, at real and complex roots
    cases = [(sl2r_ps_param(eps, F(n, d)), SL2R_SPLIT)
             for eps in (0, 1) for n in range(40) for d in (1, 2, 3)]
    cases += [(sl2c_param(m, F(n, d)), SL2C_CARTAN)
              for m in range(5) for n in range(30) for d in (1, 2, 3)]
    assert {_walls_below(g, cart) for g, cart in cases} >= {0, 1, 2, 10}
    for g, cart in cases:
        assert _walls_below(g, cart) == sum(t < 1 for t in crossing_times(g, cart)), g


def _defined_levels(g, bound):
    """(reducibility, reorienting) levels 0 < q <= bound of g's one
    restricted root, enumerated from their definition: a real root is
    reducible at the integers of the parity opposite to its grading and
    reorients at the others; a complex root is reducible at n - ell_alpha
    for the integers n > |ell_alpha|, and never reorients."""
    d = g.discrete
    if d.cartan == "split":
        reducible_parity = 1 if d.grading[0] == 1 else 0
        ints = [F(n) for n in range(1, math.floor(bound) + 1)]
        return ([q for q in ints if q % 2 == reducible_parity],
                [q for q in ints if q % 2 != reducible_parity])
    # dlambda = (m/2, m/2) pairs with the t-part (1/2, 1/2) to m/2
    la = d.dlambda[0]
    return [n - la for n in range(math.floor(bound + la) + 1) if n > abs(la)], []


def _registers(g, cart):
    """register's on-wall verdict on g: whether it files a library of one
    block in which g's element has a lower constituent."""
    group = "sl2r" if cart is SL2R_SPLIT else "sl2c"
    cid = 1 if cart is SL2R_SPLIT else 0  # the Cartan's index in its group
    # only the column of element 1 has an off-diagonal entry to check
    elements = (BlockElement(0, cid, 0, 0, g), BlockElement(1, cid, 1, 0, g))
    try:
        BlockProvider().register([Block(group, g.gamma, elements, {(0, 1): (1,)})])
    except InvariantViolation as err:
        assert str(err).startswith("reducible-on-wall: element 1 "), err
        return False
    return True


def test_reducibility_levels_against_their_definition():
    # every reader of the closed form, against the levels enumerated one by
    # one, on and off the walls, at real roots of both gradings and complex
    # roots of five shifts
    cases = [(sl2r_ps_param(eps, F(n, d)), SL2R_SPLIT)
             for eps in (0, 1) for n in range(40) for d in (1, 2, 3)]
    cases += [(sl2c_param(m, F(n, d)), SL2C_CARTAN)
              for m in range(5) for n in range(40) for d in (1, 2, 3)]
    on_wall = 0
    for g, cart in cases:
        (rr,) = cart.restricted
        x = sum(a * b for a, b in zip(g.nu, rr.covector))
        red, reo = _defined_levels(g, x + 3)
        want = sorted([(q, "reducibility") for q in red] + [(q, "reorient_positive") for q in reo])
        walls = hyperplanes(g.discrete, cart, x + 3)
        assert [(h.level, h.kind) for h in walls] == want, g
        assert all(type(h.level) is F and h.phi_covector == rr.covector for h in walls), g
        assert crossing_times(g, cart) == sorted((q / x for q in red if q <= x), reverse=True), g
        assert _walls_below(g, cart) == sum(q < x for q in red), g
        assert _registers(g, cart) == (x in red), g
        on_wall += x in red
    assert 0 < on_wall < len(cases)


def test_crossing_times_sl2c():
    g = sl2c_param(1, 3)
    # ell_alpha = 1/2, level 3/2: q = n - 1/2 for n = 1 gives t = 1/3, and
    # the wall at the point itself t = 1
    assert crossing_times(g, SL2C_CARTAN) == [F(1), F(1, 3)]


def test_crossing_times_of_two_roots_merge_and_drop_equal_times():
    # two real roots pairing with nu to 3 and 5: levels 1, 3 and 1, 3, 5
    # (grading +1: the odd levels), so t = 1/3, 1 and 1/5, 3/5, 1 merge to
    # one descending list with t = 1 once
    cart = CartanClass("two", SL2R_SPLIT.theta, SL2R_SPLIT.root_class, (
        RestrictedRoot((1, 0), "real", root_index=0), RestrictedRoot((0, 1), "real", root_index=1)))
    g = LanglandsParam(DiscreteParam("two", (0, 0), {0: 1, 1: 1}), (3, 5))
    assert crossing_times(g, cart) == [F(1), F(3, 5), F(1, 3), F(1, 5)]


def test_a_negative_pairing_is_refused_naming_the_parameter():
    # PS+ at nu = -7/2 pairs to -7/2: its walls at -1 and -3 lie below no
    # positive level, so the deformation read none and answered PS0 alone,
    # where nu = 7/2 has five terms
    g = LanglandsParam(sl2r_ps_param(0, F(7, 2)).discrete, (F(-7, 2),))
    text = ("nu pairs negatively with a restricted root (<nu, phi^vee> = -7/2) in the "
            "parameter on Cartan 'split' with dlambda (0), grading {0: 1} and nu (-7/2); "
            "deformation needs every pairing >= 0")
    for call in (crossing_times, _walls_below):
        with pytest.raises(ValueError) as err:
            call(g, SL2R_SPLIT)
        assert str(err.value) == text
    assert len(deform_to_zero(sl2r_ps_param(0, F(7, 2)), BlockProvider()).terms) == 5
    with pytest.raises(ValueError) as err:
        deform_to_zero(g, BlockProvider())
    assert str(err.value) == text
    h = LanglandsParam(sl2c_param(3, 5).discrete, (F(-5, 2), F(5, 2)))
    with pytest.raises(ValueError, match=r"= -5/2\) in the parameter on Cartan 'complex' "
                       r"with dlambda \(3/2, 3/2\), grading \{\} and nu \(-5/2, 5/2\)"):
        crossing_times(h, SL2C_CARTAN)
    # the second route: a registered library holding the parameter, whose
    # one-term column unitary_test deforms
    p = BlockProvider()
    p.register([parse_block(json.dumps({
        "group": "sl2r", "inf_char": ["7/2"],
        "elements": [{"id": 0, "cartan": 1, "length": 0, "orient": 0,
                      "param": param_to_json(g)}],
        "Q": []}))])
    with pytest.raises(ValueError) as err:
        unitary_test(g, p)
    assert str(err.value) == text


def _times_read_off_hyperplanes(g, cart):
    """The reducibility levels of each restricted root over its pairing
    with nu, deduplicated and sorted descending."""
    times = set()
    for rr in cart.restricted:
        x = sum(a * b for a, b in zip(g.nu, rr.covector))
        times.update(h.level / x for h in hyperplanes(g.discrete, cart, x)
                     if h.kind == "reducibility" and h.phi_covector == rr.covector)
    return sorted(times, reverse=True)


def test_crossing_times_are_the_reducibility_walls_of_the_arrangement():
    # nu = n/d up to 200: a stride of 29, prime to every 2d, meets every
    # residue of n mod 2d, and the top nu = 200 is taken for each d
    for d in (1, 2, 3, 4, 7):
        for n in sorted(set(range(0, 200 * d + 1, 29)) | {200 * d}):
            nu = F(n, d)
            params = [(sl2r_ps_param(eps, nu), SL2R_SPLIT) for eps in (0, 1)]
            params += [(sl2c_param(m, nu), SL2C_CARTAN) for m in range(11)]
            for g, cart in params:
                assert crossing_times(g, cart) == _times_read_off_hyperplanes(g, cart), (g, cart)


def test_param_json_round_trip():
    for g in (
        sl2r_ps_param(0, F(3, 2)),
        sl2r_ps_param(1, 2),
        sl2r_ds_param(-1, 3),
        sl2c_param(3, 1),
    ):
        assert param_from_json(param_to_json(g)) == g


@pytest.mark.parametrize(
    "dlambda, nu",
    [
        ((3,), (0,)),
        ((0,), ("7/2",)),
        (("3/2", "3/2"), ("5/2", "-5/2")),
        ((-4, "1/3"), (0, "2/9")),
    ],
)
def test_params_from_ints_strings_and_fractions_agree(dlambda, nu):
    def build(convert):
        d = DiscreteParam(cartan="c", dlambda=tuple(convert(x) for x in dlambda),
                          grading={0: 1}, final=True, ktype_parity=0)
        return LanglandsParam(d, tuple(convert(x) for x in nu))

    exact = build(F)
    want_gamma = tuple(F(a) + F(b) for a, b in zip(dlambda, nu))
    want_sq = sum(F(x) ** 2 for x in dlambda)
    for g in (build(lambda x: x), build(str), exact):
        assert g == exact and hash(g) == hash(exact)
        assert g.discrete == exact.discrete and hash(g.discrete) == hash(exact.discrete)
        assert all(type(x) is F for x in g.nu + g.discrete.dlambda + g.gamma)
        assert g.gamma == want_gamma
        num, den = g.discrete.dlambda_sq
        assert den > 0 and F(num, den) == want_sq


def test_fraction_coordinates_are_kept_not_rebuilt():
    nu = (F(7, 2),)
    d = DiscreteParam(cartan="c", dlambda=(F(3),))
    g = LanglandsParam(d, nu)
    assert g.nu is nu
    assert g.gamma == (F(13, 2),)
    # with nu = 0 or d lambda = 0, gamma is the other tuple itself
    ds, ps = sl2r_ds_param(1, 3), sl2r_ps_param(0, F(7, 2))
    assert ds.gamma is ds.discrete.dlambda and ds.gamma == (F(3),)
    assert ps.gamma is ps.nu and ps.gamma == nu
    assert frac_str(F(-6, 4)) == "-3/2" and frac_str(2) == "2"


def test_gamma_is_computed_only_when_read(monkeypatch):
    adds = []
    add = F.__add__

    def counted(a, b):
        adds.append((a, b))
        return add(a, b)

    monkeypatch.setattr(F, "__add__", counted)
    g = LanglandsParam(DiscreteParam("complex", (F(3, 2), F(3, 2))), (F(41, 4), F(-41, 4)))
    assert adds == []
    assert g.gamma == (F(47, 4), F(-35, 4))
    assert len(adds) == 2
