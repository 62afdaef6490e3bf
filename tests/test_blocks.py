"""Block containers: built-in models, inversion, component splitting,
serialization and invariant enforcement."""

import collections
import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from sigzero import blocks
from sigzero.blocks import (
    SL2C,
    SL2R,
    SL2R_SPLIT,
    Block,
    BlockElement,
    BlockProvider,
    block_to_json_obj,
    builtin_block,
    group_model,
    invert_multiplicity,
    parse_block,
    serialize_block,
    sl2c_param,
    sl2r_ds_param,
    sl2r_ps_param,
    split_components,
)
from sigzero.cli import main
from sigzero.params import DiscreteParam, LanglandsParam, crossing_times
from sigzero.sigengine import deform_to_zero, unitary_test
from sigzero.errors import (
    InvariantViolation,
    MissingBlock,
    NonIntegerData,
    SchemaError,
    SigzeroError,
    UnsupportedGroup,
    ValidationError,
)

F = Fraction


def labels(b):
    return [group_model(b.group).label(e.param) for e in b.elements]


def _partitions(p, group, ic):
    """The partition a provider serves at a key, by content."""
    return list(map(serialize_block, p.get(group, ic)))


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
    assert labels(b) == ["PS(1,1/2)"]
    p = BlockProvider()
    assert _partitions(p, "sl2c", (1, 2)) == _partitions(p, "sl2c", (2, 1))


def test_element_label():
    assert SL2R.label(sl2r_ds_param(1, 2)) == "DS+(2)"
    assert SL2R.label(sl2r_ds_param(-1, 0)) == "LDS-"
    assert SL2R.label(sl2r_ps_param(0, F(5, 2))) == "PS+(5/2)"
    assert SL2C.label(sl2c_param(3, 1)) == "PS(3,1)"


# ---------------------------------------------------------------------------
# inversion and order

def _inverse_at_q1(b):
    """M = m^{-1} at q = 1: invert_multiplicity at q = 1 with the sign
    (-1)^(l(c) - l(r))."""
    lengths = {e.id: e.length for e in b.elements}
    return {(r, c): -sum(v) if (lengths[c] - lengths[r]) % 2 else sum(v)
            for (r, c), v in invert_multiplicity(b).items()}


def test_multiplicity_inverse_is_inverse():
    (b, _) = builtin_block("sl2r", (1,))
    m = {(r, c): sum(b.q_poly(r, c)) for r in b.ids() for c in b.ids()}
    M = _inverse_at_q1(b)
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


def test_file_block_is_validated_once(monkeypatch):
    # a two-component file: the chain and the singleton at sl2r:2; its
    # components are cut from the parsed block and not validated again
    b3, single = builtin_block("sl2r", (2,))
    text = serialize_block(Block(
        b3.group, b3.inf_char, tuple(b3.elements) + tuple(single.elements),
        {**b3.Q, **single.Q}))
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, blocks, "_validate_block")
    parts = split_components(parse_block(text))
    assert calls["_validate_block"] == 1
    assert list(map(serialize_block, parts)) == [serialize_block(b3), serialize_block(single)]


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


def test_provider_serves_builtin_partition_at_canonical_key():
    p = BlockProvider()
    first = p.get("sl2r", (F(5, 2),))
    assert _partitions(p, "sl2r", F(-5, 2)) == list(map(serialize_block, first))
    assert p.get("sl2r", (F(5, 2),)) is not BlockProvider().get("sl2r", (F(5, 2),))


def test_provider_register_wins_over_served_builtin():
    p = BlockProvider()
    served = p.get("sl2r", (2,))
    library = builtin_block("sl2r", (2,))
    p.register(library)
    got = p.get("sl2r", (2,))
    assert got is not served
    assert all(a is b for a, b in zip(got, library))


def test_register_keeps_the_served_builtin_partitions():
    # a built-in partition depends only on its key: a library registered
    # at another key leaves it as it was served, and leaves the blocks
    # ``find`` built as they are
    p = BlockProvider()
    served = _partitions(p, "sl2r", (2,))
    found = p.find("sl2r", sl2r_ds_param(1, 2))[0]
    p.register(builtin_block("sl2r", (3,)))
    assert _partitions(p, "sl2r", (2,)) == served
    assert p.find("sl2r", sl2r_ds_param(1, 2))[0] is found


def test_register_of_no_blocks_stores_nothing_and_keeps_the_memo():
    p = BlockProvider()
    g = sl2r_ps_param(0, F(7, 2))
    want = deform_to_zero(g, p)
    p.register([])
    assert p._store == {} and p.deformation(("sl2r", g)) == want


# ---------------------------------------------------------------------------
# block shapes: one validated shape per translation family

def _built_in_keys():
    # sl2r at k = n/d <= 200: integral k of both reducible parities, and
    # every residue class of n mod 2d; sl2c at (m, v) with v in Z/2
    for d in (1, 2, 3, 4, 7):
        for n in range(200 * d + 1):
            yield "sl2r", (F(n, d),)
    for m in range(11):
        for h in range(401):
            yield "sl2c", (m, F(h, 2))


def _fingerprint(comps):
    return [(serialize_block(b), labels(b), [(e.tau, e.cartan) for e in b.elements])
            for b in comps]


def test_blocks_instantiated_from_shapes_equal_fresh_builds():
    shapes = {}
    for group, ic in _built_in_keys():
        assert _fingerprint(builtin_block(group, ic, shapes)) == _fingerprint(
            builtin_block(group, ic)), (group, ic)
    # sl2r: k = 0 (3 singletons), odd and even k (chain + singleton each),
    # and 2 singletons for each of the 2 + 4 + 4 + 12 classes of nonintegral
    # n mod 2d; sl2c: 3 chains, 3 diagonal singletons, 3 pairs of singletons
    # of mixed parity, and 10 singletons with one half-integral coordinate
    # (m = 0, even or odd, v = 1/2 or 3/2 mod 2, m above or below v unless
    # m = 0); the group opens every key, so groups never share a shape
    groups = collections.Counter(key[0] for key in shapes)
    assert groups == {"sl2r": 3 + 4 + 2 * 22, "sl2c": 3 + 3 + 6 + 10}


def _count_calls(monkeypatch, calls, owner, name):
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


def test_cold_deformation_validates_once_per_shape(monkeypatch):
    calls = collections.Counter()
    # a wall is looked up by BlockProvider.find, which builds the one block
    # holding the wall point
    _count_calls(monkeypatch, calls, BlockProvider, "find")
    for name in ("_validate_block", "length", "orientation_number"):
        _count_calls(monkeypatch, calls, blocks, name)
    # the shapes built: for sl2r the chain at odd k only, as no wall point
    # lies in the singleton beside it; for sl2c two blocks
    queries = [("sl2r", sl2r_ps_param(0, F(161, 2)), 1), ("sl2c", sl2c_param(3, F(41, 2)), 2)]
    for group, g, shapes in queries:
        seen = []
        # a second fresh provider builds its first shapes again: no cache
        # outlives the provider that owns it
        for _ in range(2):
            calls.clear()
            p = BlockProvider()
            deform_to_zero(g, p, group)
            seen.append(dict(calls))
        assert seen[0] == seen[1]
        # 40 walls for sl2r, 18 for sl2c
        assert calls["find"] >= 18
        assert calls["_validate_block"] == len(p._shapes) == shapes
        assert calls["length"] == calls["orientation_number"] <= 4


def test_cold_deformation_builds_one_block_per_wall(monkeypatch):
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, blocks.GroupModel, "instantiate")
    _count_calls(monkeypatch, calls, blocks, "builtin_block")
    g = sl2r_ps_param(0, F(161, 2))
    deform_to_zero(g, BlockProvider())
    # the odd levels 1, 3, ..., 79 below 161/2; no wall is the top point
    walls = crossing_times(g, SL2R_SPLIT)
    assert len(walls) == 40 and walls[0] < 1
    assert calls == {"instantiate": 40}


def test_cold_sl2c_walk_builds_one_discrete_part_per_find(monkeypatch):
    # a wall point's own slot takes the wall point: a chain's lookup builds
    # the discrete part of the other slot only
    g = sl2c_param(3, F(41, 2))
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, BlockProvider, "find")
    _count_calls(monkeypatch, calls, DiscreteParam, "__init__")
    deform_to_zero(g, BlockProvider(), "sl2c")
    assert calls["find"] == 18
    assert calls["__init__"] <= calls["find"]


def test_find_agrees_with_the_partition():
    for group, ic in _built_in_keys():
        for i, blk in enumerate(builtin_block(group, ic)):
            for e in blk.elements:
                p = BlockProvider()
                found, got, j = p.find(group, e.param)
                assert (_fingerprint([found]), got, j) == (_fingerprint([blk]), e, i), (group, ic)
                # a warm lookup serves the block it built
                assert p.find(group, e.param)[0] is found


def test_find_misses_what_no_block_holds():
    p = BlockProvider()
    # PS-(0) is the formal limit standard, in no block at 0; a parameter
    # with an imaginary part equals no block element
    with pytest.raises(MissingBlock) as err:
        p.find("sl2r", sl2r_ps_param(1, 0))
    assert str(err.value) == (
        "no block at infinitesimal character ['0'] contains the parameter PS-(0)")
    g = sl2r_ps_param(0, 3)
    with pytest.raises(MissingBlock) as err:
        p.find("sl2r", LanglandsParam(g.discrete, g.nu, (F(1),)))
    assert str(err.value) == (
        "no block at infinitesimal character ['3'] contains the parameter PS+(3)")
    assert p.find("sl2r", g)[2] == 0


def test_find_serves_a_group_that_is_not_built_in():
    # the sl2r:3 chain as the block file of a group known only through it
    obj = block_to_json_obj(builtin_block("sl2r", (3,))[0])
    obj["group"] = "psl2r"
    library = split_components(parse_block(json.dumps(obj)))
    p = BlockProvider()
    p.register(library)
    blk, e, i = p.find("psl2r", sl2r_ps_param(0, 3))
    assert (blk, e.id, i) == (library[0], 2, 0)
    with pytest.raises(MissingBlock) as err:
        BlockProvider().find("psl2r", sl2r_ps_param(0, 3))
    assert str(err.value) == (
        "no block at infinitesimal character ['3'] contains the parameter elt")


def test_find_computes_one_key(monkeypatch):
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, blocks.GroupModel, "key")
    for group, g in (("sl2r", sl2r_ps_param(0, 7)), ("sl2c", sl2c_param(3, 5))):
        calls.clear()
        BlockProvider().find(group, g)
        assert calls["key"] == 1, group
    # a miss names the canonical key, the order ``block show sl2c:3,1`` uses
    (chain,) = builtin_block("sl2c", (3, 1))
    p = BlockProvider()
    p.register([Block("sl2c", chain.inf_char, chain.elements[:1], {(0, 0): (1,)})])
    with pytest.raises(MissingBlock) as err:
        p.find("sl2c", sl2c_param(1, 3))
    assert str(err.value) == (
        "no block at infinitesimal character ['3', '1'] contains the parameter PS(1,3)")


def test_get_after_find_serves_the_whole_partition(monkeypatch):
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, blocks.GroupModel, "instantiate")
    # sl2r: chain and singleton, three singletons; sl2c: one 2-chain, one
    # diagonal singleton, two singletons of mixed parity
    keys = [("sl2r", (3,)), ("sl2r", (0,)), ("sl2c", (3, 1)), ("sl2c", (2, 2)),
            ("sl2c", (3, 2))]
    for group, ic in keys:
        want = builtin_block(group, ic)
        for i, blk in enumerate(want):
            for e in blk.elements:
                p = BlockProvider()
                calls.clear()
                found, _, j = p.find(group, e.param)
                assert (j, calls["instantiate"]) == (i, 1)
                # get builds the whole partition, the block find built too
                served = p.get(group, ic)
                assert calls["instantiate"] == 1 + len(want)
                assert serialize_block(served[i]) == serialize_block(found)
                assert _fingerprint(served) == _fingerprint(want), (group, ic)
                assert _fingerprint(p.get(group, ic)) == _fingerprint(served)
                for k, other in enumerate(want):
                    for e2 in other.elements:
                        assert serialize_block(p.find(group, e2.param)[0]) == \
                            serialize_block(served[k])


def test_get_builds_a_fresh_partition_and_stores_nothing():
    for group, ic in _built_in_keys():
        fresh = builtin_block(group, ic)
        want = list(map(serialize_block, fresh))
        p = BlockProvider()
        assert _partitions(p, group, ic) == want, (group, ic)
        assert p._built == {} and p._store == {}
        for blk in fresh:
            p.find(group, blk.elements[-1].param)
        built = {key: dict(v) for key, v in p._built.items()}
        assert _partitions(p, group, ic) == want, (group, ic)
        # get leaves the blocks find built as they were, identity included
        assert p._built == built


def test_get_validates_each_family_once(monkeypatch):
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, blocks, "_validate_block")
    p = BlockProvider()
    for group, ic in _built_in_keys():
        p.get(group, ic)
    assert calls["_validate_block"] == len(p._shapes)
    calls.clear()
    for group, ic in _built_in_keys():
        p.get(group, ic)
    assert calls["_validate_block"] == 0


def test_find_after_get_builds_one_block(monkeypatch):
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, blocks.GroupModel, "instantiate")
    for group, ic in _built_in_keys():
        for blk in builtin_block(group, ic):
            for e in blk.elements:
                p = BlockProvider()
                p.get(group, ic)
                calls.clear()
                p.find(group, e.param)
                assert calls["instantiate"] == 1, (group, ic)


def test_found_builtin_block_never_shadows_a_library():
    p = BlockProvider()
    # a cold lookup caches the built-in singleton PS-(3)
    single, _, _ = p.find("sl2r", sl2r_ps_param(1, 3))
    assert p.find("sl2r", sl2r_ps_param(1, 3))[0] is single
    # a library of the chain alone now holds no PS-(3)
    p.register(builtin_block("sl2r", (3,))[:1])
    with pytest.raises(MissingBlock) as err:
        unitary_test(sl2r_ps_param(1, 3), p)
    assert str(err.value) == (
        "no block at infinitesimal character ['3'] contains the parameter PS-(3)")


def test_register_refuses_blocks_at_two_keys():
    chain5 = builtin_block("sl2r", (5,))[0]
    Q = dict(chain5.Q)
    Q[(0, 2)] = (2,)
    doubled = Block(chain5.group, chain5.inf_char, chain5.elements, Q)
    g = sl2r_ps_param(0, F(11, 2))
    p = BlockProvider()
    want = deform_to_zero(g, p)
    for library, text in (
            ([builtin_block("sl2r", (3,))[0], doubled],
             "one block library at two keys: sl2r at ['3'] and sl2r at ['5']"),
            ([doubled, Block("psl2r", chain5.inf_char, chain5.elements, chain5.Q)],
             "one block library at two keys: sl2r at ['5'] and psl2r at ['5']")):
        with pytest.raises(ValueError) as err:
            p.register(library)
        assert str(err.value) == text
    # nothing was stored: the walk still crosses the built-in chain at 5
    assert p._store == {} and deform_to_zero(g, p) == want
    p.register([doubled])
    got = {lab.text: w for lab, w in deform_to_zero(g, p).items()}
    assert (got["DS+(5)"].p, got["DS+(5)"].q) == (-2, 2)


def _swapped(k):
    """The sl2r:k library with its two principal series swapped: the one
    that tops the chain is reducible at nu = k, no wall of its parity."""
    chain, single = builtin_block("sl2r", (k,))
    e0, e1, e2 = chain.elements
    (e3,) = single.elements
    return split_components(Block(
        chain.group, chain.inf_char,
        (e0, e1, dataclasses.replace(e2, param=e3.param), dataclasses.replace(e3, param=e2.param)),
        {**chain.Q, **single.Q}))


@pytest.mark.parametrize("k", range(1, 9))
def test_register_refuses_a_reducible_element_off_the_walls(k):
    library = _swapped(k)
    p = BlockProvider()
    with pytest.raises(InvariantViolation) as err:
        p.register(library)
    top = labels(library[0])[2]
    assert top == ("PS-(%d)" if k % 2 else "PS+(%d)") % k
    assert str(err.value).startswith("reducible-on-wall: element 2 (%s) " % top)
    assert p._store == {}
    # a group without Cartans has no walls to check against
    p.register([Block("psl2r", b.inf_char, b.elements, b.Q) for b in library])


def test_built_in_reducible_elements_lie_on_walls():
    # what scan relies on at a facet midpoint: an element with a lower
    # constituent lies on a reducibility wall, so its crossing times start
    # at 1, and every built-in partition registers
    for group, ic in _built_in_keys():
        comps = builtin_block(group, ic)
        model = group_model(group)
        for b in comps:
            for c in {c for r, c in b.Q if r != c}:
                g = b.element(c).param
                assert crossing_times(g, model.cartan(g.discrete.cartan))[:1] == [1], (group, ic)
        BlockProvider().register(comps)


@pytest.mark.parametrize("build", [
    lambda: sl2r_ps_param(0, 0.1),
    lambda: sl2c_param(3, 0.5),
    lambda: sl2c_param(3.0, 1),
    lambda: sl2r_ds_param(1, 3.0),
    lambda: BlockProvider().get("sl2r", 0.5),
    lambda: LanglandsParam(DiscreteParam("split", (0,)), (0.5,)),
], ids=["ps-nu", "sl2c-v", "sl2c-m", "ds-k", "provider-key", "nu"])
def test_parameter_constructors_refuse_floats(build):
    # as every reader does: a float is not an exact rational
    with pytest.raises(ValueError, match="^not an exact rational: "):
        build()


def test_block_element_compares_hashes_prints_and_replaces_by_fields():
    g, h = sl2r_ps_param(0, F(3)), sl2r_ps_param(1, F(3))
    e = BlockElement(2, 1, 1, 0, g, frozenset())
    assert e == BlockElement(id=2, cartan=1, length=1, orient=0,
                             param=sl2r_ps_param(0, F(3)), tau=frozenset())
    assert hash(e) == hash((2, 1, 1, 0, g, frozenset()))
    assert e != BlockElement(2, 1, 1, 0, h, frozenset())
    assert e != BlockElement(2, 1, 1, 0, g) and BlockElement(2, 1, 1, 0, g).tau is None
    assert e != (2, 1, 1, 0, g, frozenset())
    assert repr(e) == (
        "BlockElement(id=2, cartan=1, length=1, orient=0, param=LanglandsParam("
        "discrete=DiscreteParam(cartan='split', dlambda=(Fraction(0, 1),), "
        "grading={0: 1}, imaginary_grading=None, final=True, ktype_parity=0), "
        "nu=(Fraction(3, 1),), nu_im=None), tau=frozenset())")
    moved = dataclasses.replace(e, param=h, tau=frozenset({0}))
    assert (moved.id, moved.cartan, moved.length, moved.orient, moved.param, moved.tau) == (
        2, 1, 1, 0, h, frozenset({0}))
    assert dataclasses.replace(e) == e and e.param is g
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.length = 3


def test_register_wins_and_leaves_built_in_shapes_correct():
    p = BlockProvider()
    g = sl2r_ps_param(0, F(161, 2))
    want = deform_to_zero(g, p)
    library = builtin_block("sl2r", (5,))[:1]
    p.register(library)
    assert p.get("sl2r", (5,)) == library
    for k in (81, 82, 83, F(163, 2)):
        assert _fingerprint(p.get("sl2r", (k,))) == _fingerprint(builtin_block("sl2r", (k,)))
    # the library at 5 holds the same chain as the built-in partition
    assert deform_to_zero(g, p) == want


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


def test_big_coefficients_serialize_as_json_integers():
    (b, _) = builtin_block("sl2r", (1,))
    big = Block(
        b.group,
        b.inf_char,
        b.elements,
        {**b.Q, (0, 2): (2**60,)},
    )
    obj = block_to_json_obj(big)
    ent = [e for e in obj["Q"] if e["row"] == 0 and e["col"] == 2]
    assert ent[0]["coeffs"] == [2**60]
    text = serialize_block(big)
    assert '"coeffs":[%d]' % 2**60 in text
    assert parse_block(text).q_poly(0, 2) == (2**60,)
    assert serialize_block(parse_block(text)) == text


def _tampered(mutate):
    (b, _) = builtin_block("sl2r", (2,))
    obj = block_to_json_obj(b)
    mutate(obj)
    return obj


def _field_paths(obj, prefix=()):
    """Every key and list index of a JSON value, as paths from the root."""
    if isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield prefix + (k,)
            yield from _field_paths(v, prefix + (k,))


_VALID = _tampered(lambda o: None)
# stands for a JSON integer literal of 5,000 digits, which json.dumps cannot
# write and json.loads rejects with a plain ValueError past Python's
# int-to-str limit
_LONG = "<5000-digit integer>"
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["0", "1", "-1", "1/2", "2", "noncompact", _LONG]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


@seed(10)
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(_field_paths(_VALID))), _JSON)
def test_parse_block_fuzzed_field_raises_only_sigzero_errors(path, value):
    obj = copy.deepcopy(_VALID)
    cur = obj
    for k in path[:-1]:
        cur = cur[k]
    cur[path[-1]] = value
    try:
        parse_block(json.dumps(obj).replace(json.dumps(_LONG), "9" * 5000))
    except SigzeroError:
        pass


def _library_sl2r_3():
    """The two blocks of sl2r:3 as one library file, which the query at
    nu = 5 on the +1 line reads at its wall at 3."""
    chain, single = builtin_block("sl2r", (F(3),))
    return block_to_json_obj(Block("sl2r", chain.inf_char,
                                   chain.elements + single.elements,
                                   {**chain.Q, **single.Q}))


_LIBRARY = _library_sl2r_3()


@seed(11)
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(_field_paths(_LIBRARY))), _JSON)
@pytest.mark.parametrize("argv", [
    ["block", "load", "FILE", "--format", "json"],
    ["signature", "--parity", "+1", "--nu", "5", "--block", "FILE"],
])
def test_main_with_fuzzed_block_file_exits_with_a_code(argv, path, value):
    obj = copy.deepcopy(_LIBRARY)
    cur = obj
    for k in path[:-1]:
        cur = cur[k]
    cur[path[-1]] = value
    fd, name = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(obj).replace(json.dumps(_LONG), "9" * 5000))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([name if a == "FILE" else a for a in argv])
    finally:
        os.unlink(name)
    assert rc in (0, 2, 3, 4)
    if rc:
        assert not out.getvalue() and err.getvalue().startswith("error: ")


def test_library_file_is_read_by_the_fuzzed_query(tmp_path, capsys):
    # the unmutated file gives the built-in answer, and one changed Q
    # entry changes it, so the fuzzed files reach the deformation
    argv = ["signature", "--parity", "+1", "--nu", "5"]
    assert main(argv) == 0
    builtin = capsys.readouterr().out
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(_LIBRARY))
    assert main(argv + ["--block", str(path)]) == 0
    assert capsys.readouterr().out == builtin
    obj = copy.deepcopy(_LIBRARY)
    (entry,) = [q for q in obj["Q"] if (q["row"], q["col"]) == (0, 2)]
    entry["coeffs"] = [2]
    path.write_text(json.dumps(obj))
    assert main(argv + ["--block", str(path)]) == 0
    changed = capsys.readouterr().out
    assert "DS+(3)  1-s" in builtin and "DS+(3)  2-2s" in changed


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit in this Python")
@pytest.mark.parametrize("path", [("Q", 0, "coeffs", 0), ("elements", 0, "id")])
def test_reject_integer_literal_past_digit_limit(path):
    obj = copy.deepcopy(_VALID)
    cur = obj
    for k in path[:-1]:
        cur = cur[k]
    cur[path[-1]] = _LONG
    text = json.dumps(obj).replace(json.dumps(_LONG), "9" * 5000)
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_block(text)


def test_reject_bad_utf8_and_deep_nesting():
    for data in (b"\xff{", "[" * 100000 + "]" * 100000):
        with pytest.raises(SchemaError, match="not valid JSON"):
            parse_block(data)


def test_reject_cartan_not_of_the_group():
    def rename(o):
        o["elements"][0]["param"]["cartan"] = "bogus"

    with pytest.raises(SchemaError, match="'bogus' is not a Cartan of sl2r"):
        parse_block(_tampered(rename))

    def reindex(o):
        e = o["elements"][0]
        e["cartan"] = 1 - e["cartan"]

    with pytest.raises(SchemaError, match="cartan index"):
        parse_block(_tampered(reindex))


def test_block_checks_q_as_given():
    # Q's types are checked before zeros are trimmed: a float entry is not
    # dropped, nor a float trailing zero cut off
    chain, _ = builtin_block("sl2r", (1,))
    for extra in ({(1.9, 2): (0.0,)}, {(0, 2): (1, 0.0)}):
        with pytest.raises(NonIntegerData, match="^integer-data: Q"):
            Block(chain.group, chain.inf_char, chain.elements, {**chain.Q, **extra})
    trimmed = Block(chain.group, chain.inf_char, chain.elements,
                    {**chain.Q, (0, 2): (1, 0), (2, 0): (0,)})
    assert trimmed.Q == chain.Q


def test_python_built_blocks_get_the_file_checks():
    # the Cartan index and the refusal of a nonreal element hold for a
    # block built in Python as for a file, with the file's texts
    chain, _ = builtin_block("sl2r", (1,))
    e, rest = chain.elements[0], chain.elements[1:]
    nonreal = LanglandsParam(e.param.discrete, e.param.nu, (F(1, 2),))
    for bad, text in [
        (dataclasses.replace(e, cartan=1),
         "element 0: cartan index 1, but Cartan 'compact' of sl2r has index 0"),
        (dataclasses.replace(e, param=nonreal),
         "param nu_im must be zero: block elements are real parameters"),
    ]:
        with pytest.raises(SchemaError) as err:
            Block(chain.group, chain.inf_char, (bad,) + rest, chain.Q)
        assert str(err.value) == text


def test_file_only_group_keeps_its_own_cartan_names():
    obj = _tampered(lambda o: o.update(group="so5"))
    for e in obj["elements"]:
        e["param"]["cartan"] = "fundamental"
        e["cartan"] = 7
    b = parse_block(obj)
    assert b.group == "so5"
    assert {e.param.discrete.cartan for e in b.elements} == {"fundamental"}


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


def test_reject_negative_length(tmp_path, capsys):
    # element 0 of the sl2r:3 chain, DS+(3), given length -1
    chain = builtin_block("sl2r", (3,))[0]
    obj = block_to_json_obj(chain)
    obj["elements"][0]["length"] = -1
    path = tmp_path / "negative_length.json"
    path.write_text(json.dumps(obj))
    assert main(["block", "load", str(path)]) == 3
    assert capsys.readouterr().err == "error: nonnegative-length: element 0 has length -1\n"
    e0 = chain.elements[0]
    bad = BlockElement(e0.id, e0.cartan, -1, e0.orient, e0.param, e0.tau)
    with pytest.raises(InvariantViolation, match="nonnegative-length"):
        Block("sl2r", chain.inf_char, (bad,) + chain.elements[1:], chain.Q)


def test_reject_non_integer_block_data():
    # a block built from Python is held to the integers that parse_block's
    # files are: no float, string or bool is coerced or let through
    chain, _ = builtin_block("sl2r", (3,))
    e0 = chain.elements[0]
    bad_Q = [{(0, 2): (F(1, 2),), (1, 2): (1,)}, {(0, 2): (0.5,), (1, 2): (1,)},
             {(0, 2): (True,), (1, 2): (1,)}, {(0, 2): (1,), (1.9, 2): (1,)},
             {("0", "2"): (1,), (1, 2): (1,)}, {(0, 2): (1,), (True, 2): (1,)},
             {(0, 2): (1,), (1, 2.0): (1,)}]
    for Q in bad_Q:
        with pytest.raises(NonIntegerData, match="integer-data: Q"):
            Block("sl2r", chain.inf_char, chain.elements, Q)
    for name, value in (("id", True), ("id", 0.0), ("cartan", 0.0), ("length", 1.5),
                        ("length", F(1)), ("orient", "0"), ("orient", False)):
        bad = dataclasses.replace(e0, **{name: value})
        with pytest.raises(NonIntegerData, match="integer-data: element .* has %s" % name):
            Block("sl2r", chain.inf_char, (bad,) + chain.elements[1:], chain.Q)
    assert issubclass(NonIntegerData, ValidationError)
    # the integer data of the chain itself is accepted as it is
    assert serialize_block(Block("sl2r", chain.inf_char, chain.elements, chain.Q)) == \
        serialize_block(chain)


def test_reject_tau_that_is_not_a_frozenset_of_ints():
    chain, _ = builtin_block("sl2r", (3,))
    e0 = chain.elements[0]
    for tau in (frozenset({0.5, True}), frozenset({"0"}), {0}, [0], (0,)):
        bad = dataclasses.replace(e0, tau=tau)
        with pytest.raises(NonIntegerData) as err:
            Block("sl2r", chain.inf_char, (bad,) + chain.elements[1:], chain.Q)
        assert str(err.value) == (
            "integer-data: element 0 has tau %r, not a frozenset of ints" % (tau,))
    # None and a frozenset of ints, the empty one among them, are accepted
    for tau in (None, frozenset(), frozenset({0})):
        Block("sl2r", chain.inf_char, (dataclasses.replace(e0, tau=tau),)
              + chain.elements[1:], chain.Q)


# refuses a tau of three strings, whose own order follows the hash seed
_TAU_OF_STRINGS = """
import dataclasses
from sigzero.blocks import Block, builtin_block
chain, _ = builtin_block("sl2r", (3,))
bad = dataclasses.replace(chain.elements[0], tau=frozenset({"0", "1", "2"}))
try:
    Block("sl2r", chain.inf_char, (bad,) + chain.elements[1:], chain.Q)
except Exception as err:
    print(err)
"""


def test_tau_refusal_text_is_the_same_under_every_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(blocks.__file__)))
    texts = [subprocess.run([sys.executable, "-c", _TAU_OF_STRINGS], check=True,
                            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                            capture_output=True, text=True).stdout
             for seed in ("0", "1")]
    assert texts == ["integer-data: element 0 has tau frozenset({'0', '1', '2'}), "
                     "not a frozenset of ints\n"] * 2


def test_reject_block_file_that_is_not_a_json_object():
    for text in ("[]", "5", '"sl2r"'):
        with pytest.raises(SchemaError, match="^block file must be a JSON object$"):
            parse_block(text)


def test_reject_duplicate_q_entry():
    obj = _tampered(lambda o: o["Q"].append(dict(o["Q"][-1], coeffs=[1])))
    with pytest.raises(SchemaError, match=r"^duplicate Q entry \(\d+, \d+\)$"):
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


def test_reject_imaginary_nu():
    # block elements are real parameters: a nonzero nu_im, or one whose
    # length differs from nu, is a schema error
    for nu_im in (["1/2", "3"], ["1/2"], ["0", "0"]):
        obj = _tampered(lambda o: o["elements"][0]["param"].update(nu_im=nu_im))
        with pytest.raises(SchemaError, match="nu_im"):
            parse_block(obj)
    obj = _tampered(lambda o: o["elements"][0]["param"].update(nu_im=["0"]))
    b = parse_block(obj)
    assert all(e.param.nu_im is None for e in b.elements)
    assert serialize_block(b) == serialize_block(builtin_block("sl2r", (2,))[0])


def test_provider_key_arity_is_a_validation_error():
    p = BlockProvider()
    with pytest.raises(ValidationError, match="'sl2r' needs 1"):
        p.get("sl2r", (1, 2))
    with pytest.raises(ValidationError, match="'sl2c' needs 2"):
        p.get("sl2c", (1,))
    with pytest.raises(ValidationError, match="'sl2c' needs 2"):
        builtin_block("sl2c", 3)
    # a scalar is a one-coordinate key
    assert _partitions(p, "sl2r", 2) == _partitions(p, "sl2r", (2,))


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
