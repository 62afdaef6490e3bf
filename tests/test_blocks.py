"""Block containers: built-in models, inversion, Bruhat order, component
splitting, serialization and invariant enforcement."""

import json
from fractions import Fraction

import pytest

from sigzero.blocks import (
    SL2C,
    SL2R,
    SL2R_SPLIT,
    Block,
    BlockElement,
    BlockProvider,
    block_to_json_obj,
    bruhat_leq,
    builtin_block,
    element_label,
    group_model,
    invert_multiplicity,
    multiplicity_inverse,
    parse_block,
    serialize_block,
    singular_restrict,
    sl2c_param,
    sl2r_ds_param,
    sl2r_ps_param,
    split_components,
)
from sigzero.errors import (
    InvariantViolation,
    MissingBlock,
    MissingTau,
    SchemaError,
    UnsupportedGroup,
    ValidationError,
)

F = Fraction


def labels(b):
    return [e.label for e in b.elements]


# ---------------------------------------------------------------------------
# built-in blocks

def test_sl2r_integral_block():
    comps = builtin_block("sl2r", (2,))
    assert len(comps) == 2
    b, single = comps
    assert labels(b) == ["DS+(2)", "DS-(2)", "PS-(2)"]
    assert [e.length for e in b.elements] == [0, 0, 1]
    assert [e.orient for e in b.elements] == [0, 0, 0]
    assert b.elements[0].tau == frozenset({0})
    assert b.elements[2].tau == frozenset()
    assert b.q_poly(0, 2) == (1,)
    assert b.q_poly(1, 2) == (1,)
    assert b.q_poly(0, 1) == ()
    assert labels(single) == ["PS+(2)"]
    # odd level: the reducible parity flips
    b, single = builtin_block("sl2r", (3,))
    assert labels(b) == ["DS+(3)", "DS-(3)", "PS+(3)"]
    assert labels(single) == ["PS-(3)"]


def test_sl2r_nonintegral_and_zero_blocks():
    comps = builtin_block("sl2r", (F(5, 2),))
    assert [labels(c) for c in comps] == [["PS+(5/2)"], ["PS-(5/2)"]]
    assert all(c.elements[0].length == 0 for c in comps)
    comps = builtin_block("sl2r", (0,))
    assert [labels(c) for c in comps] == [["PS+(0)"], ["LDS+"], ["LDS-"]]
    assert comps[0].elements[0].length == 1


def test_sl2c_chain_block():
    (b,) = builtin_block("sl2c", (3, 1))
    assert len(b.elements) == 2
    lo, hi = b.elements
    assert (lo.length, hi.length) == (0, 1)
    assert (lo.orient, hi.orient) == (0, 0)
    assert hi.tau == frozenset({0})
    assert b.q_poly(0, 1) == (1,)
    # the same block is found from the swapped parameter coordinates
    (b2,) = builtin_block("sl2c", (1, 3))
    assert labels(b2) == labels(b)


def test_sl2c_singletons():
    # noninteger continuous coordinate: no chain partner
    comps = builtin_block("sl2c", (3, F(1, 2)))
    assert len(comps) == 1 and len(comps[0].elements) == 1
    # parity mismatch (a - b odd) splits into two singletons
    comps = builtin_block("sl2c", (2, 1))
    assert [len(c.elements) for c in comps] == [1, 1]
    # nu = 0 plus its irreducible partner (0,3) at the same inf char
    comps = builtin_block("sl2c", (3, 0))
    assert [len(c.elements) for c in comps] == [1, 1]


def test_sl2c_coordinate_order():
    for x, y in ((F(1, 2), 1), (1, 2), (0, 3), (2, F(7, 2))):
        one, other = builtin_block("sl2c", (x, y)), builtin_block("sl2c", (y, x))
        assert list(map(serialize_block, one)) == list(map(serialize_block, other))
    (b,) = builtin_block("sl2c", (F(1, 2), 1))
    assert [e.label for e in b.elements] == ["PS(1,1/2)"]
    p = BlockProvider()
    assert p.get("sl2c", (1, 2)) is p.get("sl2c", (2, 1))


def test_element_label():
    assert element_label("sl2r", sl2r_ds_param(1, 2)) == "DS+(2)"
    assert element_label("sl2r", sl2r_ds_param(-1, 0)) == "LDS-"
    assert element_label("sl2r", sl2r_ps_param(0, F(5, 2))) == "PS+(5/2)"
    assert element_label("sl2c", sl2c_param(3, 1)) == "PS(3,1)"


# ---------------------------------------------------------------------------
# inversion and order

def test_multiplicity_inverse_is_inverse():
    (b, _) = builtin_block("sl2r", (1,))
    m = {(r, c): sum(b.q_poly(r, c)) for r in b.ids() for c in b.ids()}
    M = multiplicity_inverse(b)
    for r in b.ids():
        for c in b.ids():
            tot = sum(
                m.get((r, k), 0) * M.get((k, c), 0) for k in b.ids()
            )
            assert tot == (1 if r == c else 0)


def test_invert_multiplicity_signs():
    (b, _) = builtin_block("sl2r", (1,))
    P = invert_multiplicity(b)
    # chain of length difference 1: P = +1 off the diagonal after the
    # (-1)^{l(c)-l(r)} sign
    assert P[(0, 2)] == (1,)
    assert P[(1, 2)] == (1,)
    assert P[(0, 0)] == (1,)


def test_bruhat_order():
    (b, _) = builtin_block("sl2r", (2,))
    assert bruhat_leq(b, 0, 2) and bruhat_leq(b, 1, 2)
    assert bruhat_leq(b, 0, 0)
    assert not bruhat_leq(b, 0, 1)
    assert not bruhat_leq(b, 2, 0)


def test_singular_restrict():
    (b, _) = builtin_block("sl2r", (2,))
    r = singular_restrict(b, [0])
    assert labels(r) == ["PS-(2)"]
    free = singular_restrict(b, [])
    assert labels(free) == labels(b)


def test_singular_restrict_needs_tau():
    (b, _) = builtin_block("sl2r", (2,))
    stripped = Block(
        b.group,
        b.inf_char,
        tuple(
            BlockElement(e.id, e.cartan, e.length, e.orient, e.param, None, e.label)
            for e in b.elements
        ),
        dict(b.Q),
    )
    with pytest.raises(MissingTau):
        singular_restrict(stripped, [0])


def test_split_components():
    b3, single = builtin_block("sl2r", (2,))
    merged = Block(
        b3.group,
        b3.inf_char,
        tuple(b3.elements) + tuple(single.elements),
        {**b3.Q, **single.Q},
    )
    parts = split_components(merged)
    assert [sorted(p.ids()) for p in parts] == [[0, 1, 2], [3]]


# ---------------------------------------------------------------------------
# provider

def test_provider_builtin_fallback_and_register():
    p = BlockProvider()
    comps = p.get("sl2r", (2,))
    assert len(comps) == 2
    p.register(builtin_block("sl2r", (2,)))
    with pytest.raises(ValueError):
        p.register(builtin_block("sl2r", (2,)))
    with pytest.raises(MissingBlock):
        p.get("g2", (1,))


def test_provider_canonical_key():
    p = BlockProvider()
    p.register(builtin_block("sl2c", (3, 1)))
    assert p.get("sl2c", (1, 3))[0] is p.get("sl2c", (3, 1))[0]


def test_provider_serves_builtin_partition_once():
    p = BlockProvider()
    first = p.get("sl2r", (F(5, 2),))
    assert p.get("sl2r", F(-5, 2)) is first
    assert p.get("sl2r", (F(5, 2),)) is not BlockProvider().get("sl2r", (F(5, 2),))


def test_provider_register_wins_over_served_builtin():
    p = BlockProvider()
    served = p.get("sl2r", (2,))
    library = builtin_block("sl2r", (2,))
    p.register(library)
    got = p.get("sl2r", (2,))
    assert got is not served
    assert all(a is b for a, b in zip(got, library))


# ---------------------------------------------------------------------------
# serialization

def test_round_trip_bytes():
    for comps in (
        builtin_block("sl2r", (2,)),
        builtin_block("sl2r", (F(5, 2),)),
        builtin_block("sl2c", (3, 1)),
    ):
        for b in comps:
            text = serialize_block(b)
            again = serialize_block(parse_block(text))
            assert text == again


def test_big_coefficients_serialize_as_strings():
    (b, _) = builtin_block("sl2r", (1,))
    big = Block(
        b.group,
        b.inf_char,
        b.elements,
        {**b.Q, (0, 2): (2**60,)},
    )
    obj = block_to_json_obj(big)
    ent = [e for e in obj["Q"] if e["row"] == 0 and e["col"] == 2]
    assert ent[0]["coeffs"] == [str(2**60)]
    assert parse_block(json.dumps(obj)).q_poly(0, 2) == (2**60,)


def _tampered(mutate):
    (b, _) = builtin_block("sl2r", (2,))
    obj = block_to_json_obj(b)
    mutate(obj)
    return obj


def test_reject_triangularity():
    obj = _tampered(lambda o: o["Q"].append({"row": 2, "col": 0, "coeffs": [1]}))
    with pytest.raises(InvariantViolation, match="triangularity"):
        parse_block(obj)


def test_reject_degree_bound():
    obj = _tampered(
        lambda o: [e.update(coeffs=[0, 1]) for e in o["Q"] if e["row"] == 0 and e["col"] == 2]
    )
    with pytest.raises(InvariantViolation, match="degree-bound"):
        parse_block(obj)


def test_reject_orientation_parity():
    def mutate(o):
        o["elements"][0]["orient"] = 1

    with pytest.raises(InvariantViolation, match="orientation-parity"):
        parse_block(_tampered(mutate))


def test_reject_duplicate_id():
    def mutate(o):
        o["elements"][1]["id"] = 0

    with pytest.raises(InvariantViolation, match="duplicate-id"):
        parse_block(_tampered(mutate))


def test_reject_unknown_element():
    obj = _tampered(lambda o: o["Q"].append({"row": 0, "col": 9, "coeffs": [1]}))
    with pytest.raises(InvariantViolation, match="unknown-element"):
        parse_block(obj)


def test_reject_negative_coefficients():
    obj = _tampered(
        lambda o: [e.update(coeffs=[-1]) for e in o["Q"] if e["row"] == 0 and e["col"] == 2]
    )
    with pytest.raises(InvariantViolation, match="nonnegative-coefficients"):
        parse_block(obj)


def test_reject_nonunit_diagonal():
    obj = _tampered(
        lambda o: [e.update(coeffs=[2]) for e in o["Q"] if e["row"] == 0 and e["col"] == 0]
    )
    with pytest.raises(InvariantViolation, match="diagonal-unit"):
        parse_block(obj)


def test_reject_malformed_schema():
    with pytest.raises(SchemaError):
        parse_block("not json at all {")
    with pytest.raises(SchemaError):
        parse_block(json.dumps({"group": "sl2r"}))
    obj = _tampered(lambda o: o["elements"][0].pop("param"))
    with pytest.raises(SchemaError):
        parse_block(obj)
    obj = _tampered(
        lambda o: [e.update(coeffs=[1.5]) for e in o["Q"] if e["row"] == 0 and e["col"] == 2]
    )
    with pytest.raises(SchemaError):
        parse_block(obj)


def test_provider_key_arity_is_a_validation_error():
    p = BlockProvider()
    with pytest.raises(ValidationError, match="'sl2r' needs 1"):
        p.get("sl2r", (1, 2))
    with pytest.raises(ValidationError, match="'sl2c' needs 2"):
        p.get("sl2c", (1,))
    with pytest.raises(ValidationError, match="'sl2c' needs 2"):
        builtin_block("sl2c", 3)
    # a scalar is a one-coordinate key
    assert p.get("sl2r", 2) is p.get("sl2r", (2,))


def test_negative_continuous_coordinate_rejected():
    with pytest.raises(ValueError):
        sl2r_ps_param(0, F(-3, 2))
    with pytest.raises(ValueError):
        sl2r_ps_param(1, -1)
    with pytest.raises(ValueError):
        sl2c_param(1, -3)
    assert sl2c_param(1, 0).nu == (0, 0)


def test_group_models():
    assert group_model("sl2r") is SL2R and group_model("sl2c") is SL2C
    assert SL2R.equal_rank and not SL2C.equal_rank
    assert [c.id for c in SL2R.cartans] == ["compact", "split"]
    assert SL2R.cartan("split") is SL2R_SPLIT
    assert SL2R.block_key(sl2r_ds_param(-1, 2)) == (2,)
    assert SL2C.block_key(sl2c_param(3, 1)) == (3, 1)
    assert SL2R.label_text(sl2r_ps_param(0, 0)) == "PS0"
    assert SL2R.label(sl2r_ps_param(0, 0)) == "PS+(0)"
    assert [SL2R.lowest_ktype(g) for g in SL2R.hs_rewrite(sl2r_ps_param(1, 0).discrete)] == [1, -1]
    assert SL2R.line(-1, 0, F(1, 2)) == sl2r_ps_param(1, F(1, 2))
    assert SL2C.line(1, 3, 2) == sl2c_param(3, 2)
    # any other group is known only through block files
    other = group_model("g2")
    assert not other.cartans and not other.equal_rank and other.ktype_support is None
    assert other.label(sl2r_ps_param(0, 1)) == "elt"
    assert other.key((1, -3, F(1, 2))) == (3, 1, F(1, 2))
    with pytest.raises(UnsupportedGroup):
        builtin_block("g2", (1,))
    with pytest.raises(UnsupportedGroup):
        other.cartan("split")
