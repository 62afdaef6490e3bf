"""Signature engine: c-signature matrices, wall-crossing deformation,
tempered rewriting and the unitarity test."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from sigzero.blocks import (
    SL2R,
    Block,
    BlockElement,
    BlockProvider,
    builtin_block,
    group_model,
    sl2c_param,
    split_components,
    sl2r_ds_param,
    sl2r_ps_param,
)
from sigzero import sigengine
from sigzero.errors import (
    BoundViolation,
    InvariantViolation,
    MissingRewriteTable,
    UnsupportedGroup,
    UnsupportedUnequalRank,
    ValidationError,
)
from sigzero.jantzen import oracle_signature
from sigzero.params import LanglandsParam, crossing_times, param_to_json
from sigzero.sigring import WElem, WPoly, W_ONE, W_S
from sigzero.sigengine import (
    SignatureChar,
    deform_step,
    deform_to_zero,
    hs_rewrite,
    irreducible_in_standards,
    ktype_signature,
    signature_P,
    signature_Q,
    unitary_test,
)

F = Fraction
S_MINUS_1 = WElem(-1, 1)
ONE_MINUS_S = WElem(1, -1)


def as_dict(sc):
    return {
        (lab if isinstance(lab, int) else lab.text): w for lab, w in sc.items()
    }


@pytest.fixture()
def provider():
    return BlockProvider()


# ---------------------------------------------------------------------------
# signature matrices

def test_signature_q_on_integral_block():
    (b, _) = builtin_block("sl2r", (1,))
    Qc = signature_Q(b)
    assert Qc[(0, 0)] == WPoly.from_int_coeffs([1])
    assert Qc[(0, 2)] == WPoly.from_int_coeffs([1])
    assert Qc[(1, 2)] == WPoly.from_int_coeffs([1])
    assert (2, 0) not in Qc


def _two_chain(q_poly, lo_orient=0, hi_orient=2, hi_length=3):
    # synthetic chain with prescribed Q and orientation gap
    e0 = BlockElement(0, 0, 0, lo_orient, sl2r_ds_param(1, 1), frozenset())
    e1 = BlockElement(1, 0, hi_length, hi_orient, sl2r_ds_param(-1, 1), frozenset())
    return Block("sl2r", (9,), (e0, e1), {(0, 1): tuple(q_poly)})


def test_signature_p_two_chain_closed_form():
    # Q = q with orientation difference 2: P^c must come out as q again
    b = _two_chain([0, 1])
    Pc = signature_P(b)
    assert Pc[(0, 1)] == WPoly.from_int_coeffs([0, 1])
    Qc = signature_Q(b)
    assert Qc[(0, 1)] == WPoly.from_int_coeffs([0, 1])


def test_signature_P_certificate_fires(monkeypatch):
    # the twist route disagrees with the inverse route in one entry
    (b, _) = builtin_block("sl2r", (2,))
    plain = sigengine.invert_multiplicity(b)
    assert plain[(0, 2)] == (1,)
    monkeypatch.setattr(sigengine, "invert_multiplicity",
                        lambda blk: {**plain, (0, 2): (2,)})
    with pytest.raises(InvariantViolation, match=r"^signature-P: inverse route and twist "
                                                 r"route disagree at \(0,2\)$"):
        signature_P(b)


@pytest.mark.parametrize("key", [(0, 2), (2, 0), (1, 0)])
def test_signature_P_certificate_fires_on_a_missing_or_extra_entry(monkeypatch, key):
    # the twist route's P = invert_multiplicity(b) without an entry of the
    # inverse, (0, 2), or with one the inverse does not have: a
    # disagreement at that entry either way
    (b, _) = builtin_block("sl2r", (2,))
    P = dict(sigengine.invert_multiplicity(b))
    if key in P:
        del P[key]
    else:
        P[key] = (1,)
    monkeypatch.setattr(sigengine, "invert_multiplicity", lambda blk: P)
    with pytest.raises(InvariantViolation,
                       match=r"^signature-P: inverse route and twist route "
                             r"disagree at \(%d,%d\)$" % key):
        signature_P(b)


def test_recursion_bound_certificate_fires():
    # a library that puts PS-(3) below PS+(3): the wall at 3 hands the
    # deformation of PS+(7/2) a child with |dlambda|^2 = 0, not above 0
    lower, upper = sl2r_ps_param(1, 3), sl2r_ps_param(0, 3)
    library = Block(
        "sl2r",
        (F(3),),
        (
            BlockElement(id=0, cartan=1, length=0, orient=0, param=lower),
            BlockElement(id=1, cartan=1, length=1, orient=0, param=upper),
        ),
        {(0, 0): (1,), (1, 1): (1,), (0, 1): (1,)},
    )
    provider = BlockProvider()
    provider.register([library])
    with pytest.raises(BoundViolation, match="recursion bound"):
        deform_to_zero(sl2r_ps_param(0, F(7, 2)), provider)


def test_recursion_bound_holds_at_every_wall_point():
    # DS+(6) (length 0) below PS+(3) (length 1): the wall at 3 hands PS+(5)
    # a child with |dlambda|^2 = 36, above its cap 25.  PS+(15/2) crosses
    # that wall with PS+(5) the wall point above it, so the same cap holds
    # there, and the raise leaves no entry that would answer for PS+(5).
    library = Block(
        "sl2r",
        (F(3),),
        (
            BlockElement(id=0, cartan=0, length=0, orient=0, param=sl2r_ds_param(1, 6)),
            BlockElement(id=1, cartan=1, length=1, orient=0, param=sl2r_ps_param(0, 3)),
        ),
        {(0, 0): (1,), (1, 1): (1,), (0, 1): (1,)},
    )
    provider = BlockProvider()
    provider.register([library])
    high = sl2r_ps_param(0, F(15, 2))
    with pytest.raises(BoundViolation, match=r"not in \(0, 25\)"):
        deform_to_zero(high, provider)
    for h in [high] + _wall_points("sl2r", high):
        assert provider.deformation(("sl2r", h)) is None
    with pytest.raises(BoundViolation, match=r"not in \(0, 25\)"):
        deform_to_zero(sl2r_ps_param(0, 5), provider)


def _library_below_ps3(child):
    """The chain at 3 with the given child of length 0 below PS+(3)."""
    return Block(
        "sl2r",
        (F(3),),
        (
            BlockElement(id=0, cartan=0, length=0, orient=0, param=child),
            BlockElement(id=1, cartan=1, length=1, orient=0, param=sl2r_ps_param(0, 3)),
        ),
        {(0, 0): (1,), (1, 1): (1,), (0, 1): (1,)},
    )


@pytest.mark.parametrize("nu, cap", [(F(5), "25"), (F(11, 2), "25"), (F(7, 2), "49/4")])
def test_recursion_bound_is_strict_at_the_cap(nu, cap):
    # the wall at 3 hands PS+(nu) the child DS+(5), |dlambda|^2 = 25; the
    # cap is |nu|^2 times the square of the crossing time above that wall
    provider = BlockProvider()
    provider.register([_library_below_ps3(sl2r_ds_param(1, 5))])
    with pytest.raises(BoundViolation, match=r"= 25 not in \(0, %s\)" % cap):
        deform_to_zero(sl2r_ps_param(0, nu), provider)
    # DS+(4), |dlambda|^2 = 16, is inside every one of those caps
    provider = BlockProvider()
    provider.register([_library_below_ps3(sl2r_ds_param(1, 4))])
    if nu != F(7, 2):
        assert "DS+(4)" in as_dict(deform_to_zero(sl2r_ps_param(0, nu), provider))


def test_a_caller_may_change_the_deformation_it_was_given():
    provider = BlockProvider()
    low, high = sl2r_ps_param(0, F(1, 2)), sl2r_ps_param(0, F(7, 2))
    extra = sl2r_ps_param(0, 0)
    r = deform_to_zero(low, provider)
    r.add(extra, W_ONE)
    assert as_dict(deform_to_zero(low, provider)) == {"PS0": W_ONE}
    # a result that crossed walls, and the wall points it left in the memo
    r = deform_to_zero(high, provider)
    r.add(extra, W_ONE)
    r.add_char(deform_to_zero(sl2r_ps_param(0, 3), provider))
    for g in (high, sl2r_ps_param(0, 3), sl2r_ps_param(0, 1)):
        assert deform_to_zero(g, provider) == deform_to_zero(g, BlockProvider())
    assert deform_to_zero(high, provider) is not deform_to_zero(high, provider)


def test_signature_pq_compose_to_signed_identity():
    for comps in (builtin_block("sl2r", (2,)), builtin_block("sl2c", (3, 1))):
        for b in comps:
            Qc, Pc = signature_Q(b), signature_P(b)
            lengths = {e.id: e.length for e in b.elements}
            for r in b.ids():
                for c in b.ids():
                    acc = WPoly.from_int_coeffs([])
                    for k in b.ids():
                        p = Pc.get((r, k))
                        q = Qc.get((k, c))
                        if p is None or q is None:
                            continue
                        sign = (-1) ** ((lengths[r] + lengths[k]) % 2)
                        acc = acc + p * q * sign
                    want = (
                        WPoly.from_int_coeffs([1])
                        if r == c
                        else WPoly.from_int_coeffs([])
                    )
                    assert acc == want


# ---------------------------------------------------------------------------
# expansions

def test_irreducible_in_standards_integral():
    (b, _) = builtin_block("sl2r", (1,))
    sc = irreducible_in_standards(b, 2)
    assert sc.basis == "standard"
    assert as_dict(sc) == {"PS+(1)": W_ONE, "DS+(1)": -W_ONE, "DS-(1)": -W_ONE}
    sc = irreducible_in_standards(b, 0)
    assert as_dict(sc) == {"DS+(1)": W_ONE}


def test_deform_step_at_wall():
    (b, _) = builtin_block("sl2r", (1,))
    gamma = sl2r_ps_param(0, 1)
    delta = deform_step(b, gamma)
    assert delta.basis == "irreducible"
    assert as_dict(delta) == {"DS+(1)": S_MINUS_1, "DS-(1)": S_MINUS_1}


def test_a_parameter_missing_from_a_block_is_refused():
    chain, _ = builtin_block("sl2r", (3,))
    for read in (irreducible_in_standards, deform_step):
        with pytest.raises(KeyError) as err:
            read(chain, sl2r_ps_param(0, F(7, 2)))
        assert err.value.args[0] == "parameter not found in block"


def test_element_ids_are_looked_up_exactly():
    # an id that is not an int, or is a bool, names no element: it is
    # neither truncated nor taken as a number
    chain, _ = builtin_block("sl2r", (3,))
    for bad in (1.9, 2.7, True, 1.0, "1"):
        for read in (irreducible_in_standards, deform_step, Block.element):
            with pytest.raises(KeyError) as err:
                read(chain, bad)
            assert err.value.args[0] == "no element %r in block" % (bad,)
    assert as_dict(irreducible_in_standards(chain, 1)) == {"DS-(3)": W_ONE}


def test_deform_step_skips_even_length_differences():
    elements = tuple(
        BlockElement(i, 0, i, 2 * i, sl2r_ds_param(1, i + 1), frozenset())
        for i in range(3)
    )
    e0, e1, _ = (e.param for e in elements)
    b = Block("synth", (F(1),), elements, {(0, 1): (1,), (1, 2): (2,), (0, 2): (3,)})
    # E1 enters with (s-1) s^((2-4)/2) 2 = 2 - 2s; E0, two lengths below, not at all
    assert deform_step(b, 2).terms == {e1: WElem(2, -2)}
    assert deform_step(b, 1).terms == {e0: WElem(1, -1)}


def _builtin_chains():
    for k in range(1, 13):
        yield from builtin_block("sl2r", (k,))
    for a in range(1, 13):
        for c in range(a % 2, a, 2):
            yield from builtin_block("sl2c", (a, c))


def test_deform_step_coefficients_are_qc_at_one():
    crossed = 0
    for b in _builtin_chains():
        Qc = signature_Q(b)
        for g in b.elements:
            # Q^c at q = 1: the sums of its s^0 and its s^1 coefficients
            want = {
                group_model(b.group).label(e.param):
                    S_MINUS_1 * WElem(sum(Qc[(e.id, g.id)].a), sum(Qc[(e.id, g.id)].b))
                for e in b.elements
                if e.length < g.length and (g.length - e.length) % 2
                and (e.id, g.id) in Qc
            }
            assert as_dict(deform_step(b, g.id)) == want
            crossed += bool(want)
    assert crossed > 20


@given(st.lists(st.integers(-5, 5), max_size=8), st.integers(-3, 3))
def test_qc_entry_is_the_twist(coeffs, h):
    assert WPoly(*sigengine._qc_entry(coeffs, h)) == \
        WPoly.from_int_coeffs(coeffs).twist_sq(2 * h)


def test_hs_rewrite():
    g0 = sl2r_ps_param(0, 0)
    assert as_dict(hs_rewrite(g0, "sl2r")) == {"PS0": W_ONE}
    g1 = sl2r_ps_param(1, 0)
    assert as_dict(hs_rewrite(g1, "sl2r")) == {"LDS+": W_ONE, "LDS-": W_ONE}
    with pytest.raises(MissingRewriteTable):
        hs_rewrite(LanglandsParam(_nonfinal_sl2c(), (0, 0)), "sl2c")


def test_hs_rewrite_takes_the_parameter_at_zero():
    with pytest.raises(ValueError):
        hs_rewrite(sl2r_ps_param(0, 1), "sl2r")
    # a final parameter is its own rewrite, reused and not rebuilt; the
    # model's Hecht-Schmid table has no row for it
    g = sl2r_ps_param(0, 0)
    (t,) = hs_rewrite(g, "sl2r").terms
    assert t is g
    with pytest.raises(MissingRewriteTable):
        SL2R.hs_rewrite(g.discrete)


def _nonfinal_sl2c():
    from sigzero.params import DiscreteParam

    d = sl2c_param(1, 0).discrete
    return DiscreteParam(
        cartan=d.cartan,
        dlambda=d.dlambda,
        grading={},
        final=False,
        ktype_parity=d.ktype_parity,
    )


# ---------------------------------------------------------------------------
# deformation truth table

DEFORM_TABLE = [
    (0, F(1), {"PS0": W_ONE}),
    (0, F(3, 2), {"PS0": W_ONE, "DS+(1)": S_MINUS_1, "DS-(1)": S_MINUS_1}),
    (0, F(3), {"PS0": W_ONE, "DS+(1)": S_MINUS_1, "DS-(1)": S_MINUS_1}),
    # the wall at 3 is crossed with one reducibility wall still below it,
    # so its delta carries an extra factor of s: s(s-1) = 1-s
    (
        0,
        F(7, 2),
        {
            "PS0": W_ONE,
            "DS+(1)": S_MINUS_1,
            "DS-(1)": S_MINUS_1,
            "DS+(3)": ONE_MINUS_S,
            "DS-(3)": ONE_MINUS_S,
        },
    ),
    (1, F(2), {"LDS+": W_ONE, "LDS-": W_ONE}),
    (
        1,
        F(3),
        {
            "LDS+": W_ONE,
            "LDS-": W_ONE,
            "DS+(2)": S_MINUS_1,
            "DS-(2)": S_MINUS_1,
        },
    ),
]


@pytest.mark.parametrize("eps,nu,want", DEFORM_TABLE)
def test_deform_to_zero_table(provider, eps, nu, want):
    g = sl2r_ps_param(eps, nu)
    sc = deform_to_zero(g, provider)
    assert sc.basis == "final_tempered"
    assert as_dict(sc) == want


def test_deform_memoized_and_traced_call_reads_the_memo(provider):
    g = sl2r_ps_param(0, F(7, 2))
    records = []
    first = deform_to_zero(g, provider, trace=records.append)
    assert first == deform_to_zero(g, BlockProvider())
    assert deform_to_zero(g, provider) == first
    events = {r["event"] for r in records}
    assert events == {"crossing", "recurse"}
    # 7/2 crosses the walls at 1 and 3: two crossing records at top level
    crossings = [r for r in records if r["event"] == "crossing"]
    assert [r["t"] for r in crossings] == ["6/7", "2/7"]
    # a traced call on the warm provider is answered by the memo
    again = []
    assert deform_to_zero(g, provider, trace=again.append) == first
    assert again == []


def test_deform_is_provider_local():
    p1, p2 = BlockProvider(), BlockProvider()
    g = sl2r_ps_param(0, F(3, 2))
    assert deform_to_zero(g, p1) == deform_to_zero(g, p2)


def _drop_q12(b):
    """The built-in sl2r:1 chain without its Q[1,2] entry, split into its
    two components."""
    Q = {k: v for k, v in b.Q.items() if k != (1, 2)}
    return split_components(Block(b.group, b.inf_char, b.elements, Q))


def test_register_clears_deformation_memo():
    g = sl2r_ps_param(0, F(3, 2))
    chain, lone = builtin_block("sl2r", (1,))
    library = _drop_q12(chain) + [lone]
    used = BlockProvider()
    before = deform_to_zero(g, used)
    used.register(library)
    fresh = BlockProvider()
    fresh.register(library)
    want = deform_to_zero(g, fresh)
    assert want != before
    assert deform_to_zero(g, used) == want
    assert as_dict(want) == {"DS+(1)": S_MINUS_1, "PS0": W_ONE}


# ---------------------------------------------------------------------------
# wall points in the deformation memo

SL2R_NUS = sorted({F(k, 2) for k in range(1, 61)} | {F(k, 3) for k in range(1, 91, 7)})
SL2C_VS = sorted({F(k, 2) for k in range(1, 17)} | {F(17, 3)})
MEMO_QUERIES = (
    [("sl2r", sl2r_ps_param(eps, nu)) for eps in (0, 1) for nu in SL2R_NUS]
    + [("sl2c", sl2c_param(m, v)) for m in range(4) for v in SL2C_VS]
)


def _wall_points(group, g):
    """The wall points (Lambda, t nu) with 0 < t < 1 of a query."""
    cart = group_model(group).cartan(g.discrete.cartan)
    return [LanglandsParam(g.discrete, tuple(t * x for x in g.nu))
            for t in crossing_times(g, cart) if t != 1]


@pytest.fixture(scope="module")
def fresh_deformations():
    """Each memo query and each of its wall points, deformed on a provider
    of its own."""
    out = {}
    for group, g in MEMO_QUERIES:
        for h in [g] + _wall_points(group, g):
            if (group, h) not in out:
                out[(group, h)] = deform_to_zero(h, BlockProvider(), group)
    return out


def test_memo_holds_walks_only():
    # every child entering at a wall of PS+(15/2) is tempered, and so is the
    # bottom PS+(0) of its walk: each is rewritten, not remembered
    p = BlockProvider()
    deform_to_zero(sl2r_ps_param(0, F(15, 2)), p)
    tempered = [sl2r_ds_param(sign, k) for sign in (1, -1) for k in (1, 3, 5, 7)]
    for h in tempered + [sl2r_ps_param(0, F(0))]:
        assert p.deformation(("sl2r", h)) is None, h
    walks = [sl2r_ps_param(0, nu) for nu in (F(15, 2), F(7), F(5), F(3))]
    for h in walks:
        assert p.deformation(("sl2r", h)) is not None, h
    assert len(p._deformations) == len(walks)
    # a tempered parameter still gets an object of its own on every call
    first, second = deform_to_zero(tempered[0], p), deform_to_zero(tempered[0], p)
    assert first == second and first is not second
    # the children PS(5,3) and PS(7,3) under PS(3,17/2) are not tempered
    p = BlockProvider()
    deform_to_zero(sl2c_param(3, F(17, 2)), p, "sl2c")
    for m in (5, 7):
        assert p.deformation(("sl2c", sl2c_param(m, 3))) is not None, m


def test_memo_holds_only_walks_that_crossed_a_wall():
    # each query lies below its lowest wall: its walk crosses none and its
    # answer is the rewrite at nu = 0, which reads no block
    for group, g in (("sl2r", sl2r_ps_param(0, F(1, 2))),
                     ("sl2r", sl2r_ps_param(1, F(3, 2))),
                     ("sl2c", sl2c_param(0, F(1, 2)))):
        p = BlockProvider()
        first = deform_to_zero(g, p, group)
        assert p._deformations == {}, g
        second = deform_to_zero(g, p, group)
        assert first == second and first is not second, g


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_shared_provider_matches_fresh_providers(fresh_deformations, order):
    queries = sorted(MEMO_QUERIES, key=lambda q: (q[1].nu, q[0], q[1].discrete.dlambda),
                     reverse=(order == "descending"))
    if order == "shuffled":
        random.Random(11).shuffle(queries)
    shared = BlockProvider()
    for group, g in queries:
        assert deform_to_zero(g, shared, group) == fresh_deformations[(group, g)], (order, g)
    # every wall point the queries crossed is remembered, as a fresh
    # provider deforms it
    held = 0
    for group, g in queries:
        for h in _wall_points(group, g):
            entry = shared.deformation((group, h))
            if entry is not None:
                held += 1
                assert entry == fresh_deformations[(group, h)], (order, h)
    assert held > len(queries)


def test_traced_stream_stops_at_remembered_wall_points():
    g = sl2r_ps_param(0, F(15, 2))
    fresh_records = []
    traced = deform_to_zero(g, BlockProvider(), trace=fresh_records.append)
    crossings = [r for r in fresh_records if r["event"] == "crossing"]
    assert [r["t"] for r in crossings] == ["14/15", "2/3", "2/5", "2/15"]
    warm = BlockProvider()
    untraced = deform_to_zero(sl2r_ps_param(0, F(29, 2)), warm)
    assert warm.deformation(("sl2r", sl2r_ps_param(0, F(7)))) is not None
    warm_records = []
    assert deform_to_zero(g, warm, trace=warm_records.append) == traced
    # the walk crosses its first wall, at t = 14/15, and stops below it at
    # the remembered PS+(7): the fresh records up to the second crossing
    assert warm_records == fresh_records[:fresh_records.index(crossings[1])]
    assert [r["event"] for r in warm_records] == ["crossing", "recurse", "recurse"]
    assert traced == deform_to_zero(g, BlockProvider())
    assert untraced == deform_to_zero(sl2r_ps_param(0, F(29, 2)), BlockProvider())


def _by_crossing(records):
    """A trace stream as (crossing, records up to the next crossing) pairs."""
    walls = []
    for r in records:
        if r["event"] == "crossing":
            walls.append((r, []))
        else:
            walls[-1][1].append(r)
    return walls


@pytest.mark.parametrize("g", [sl2r_ps_param(1, F(15, 2)), sl2r_ps_param(0, F(81, 2))],
                         ids=["sl2r-15_2", "sl2r+81_2"])
def test_recurse_records_print_the_cap_of_the_wall_point_above(g):
    # every child is tempered, so no nested walk interleaves the stream: the
    # records after each wall below the top are the ones a fresh call on the
    # wall point above prints after its first wall, caps included
    records = []
    deform_to_zero(g, BlockProvider(), trace=records.append)
    walls = _by_crossing(records)
    assert len(walls) >= 3
    assert all(recs and {r["event"] for r in recs} == {"recurse"} for _, recs in walls)
    for (above, _), (_, recs) in zip(walls, walls[1:]):
        point = LanglandsParam(g.discrete, tuple(F(above["t"]) * x for x in g.nu))
        fresh = []
        deform_to_zero(point, BlockProvider(), trace=fresh.append)
        assert _by_crossing(fresh)[0][1] == recs


def _reversed_sl2r_1():
    """A provider holding the sl2r:1 library with the chain's elements
    listed out of name order."""
    chain, single = builtin_block("sl2r", (1,))
    provider = BlockProvider()
    provider.register([Block(chain.group, chain.inf_char, chain.elements[::-1], chain.Q),
                       single])
    return provider


def _crossed_sl2c_5_1():
    """A provider holding a synthetic sl2c library at (5, 1) whose wall
    element PS(1,5) has two children with walls of their own, listed out
    of name order, and the wall point PS(5,1) of one of them."""
    params = [sl2c_param(5, 3), sl2c_param(3, 5), sl2c_param(1, 5), sl2c_param(5, 1)]
    elements = tuple(BlockElement(i, 0, 1 if i == 2 else 0, 0, p)
                     for i, p in enumerate(params))
    provider = BlockProvider()
    provider.register([Block("sl2c", (5, 1), elements, {(0, 2): (1,), (1, 2): (1,)})])
    return provider


def test_trace_follows_the_element_order():
    # a library listing its elements out of name order: the recurse records
    # follow the block's element order, the delta still prints by name
    g = sl2r_ps_param(0, F(5, 2))
    records = []
    traced = deform_to_zero(g, _reversed_sl2r_1(), trace=records.append)
    (crossing,) = [r for r in records if r["event"] == "crossing"]
    assert [r["param"] for r in records if r["event"] == "recurse"] == [
        param_to_json(sl2r_ds_param(-1, 1)), param_to_json(sl2r_ds_param(1, 1))]
    assert [t["label"]["text"] for t in crossing["delta"]["terms"]] == ["DS+(1)", "DS-(1)"]
    assert traced == deform_to_zero(g, _reversed_sl2r_1())


@pytest.mark.parametrize("group, g, fresh", [
    ("sl2r", sl2r_ps_param(0, F(15, 2)), BlockProvider),
    ("sl2r", sl2r_ps_param(1, F(81, 2)), BlockProvider),
    ("sl2c", sl2c_param(3, F(41, 2)), BlockProvider),
    ("sl2c", sl2c_param(0, F(30)), BlockProvider),
    ("sl2r", sl2r_ps_param(0, F(5, 2)), _reversed_sl2r_1),
    ("sl2c", sl2c_param(1, F(7)), _crossed_sl2c_5_1),
], ids=["sl2r+15_2", "sl2r-81_2", "sl2c3_41_2", "sl2c0_30", "reversed_sl2r_1",
        "crossed_sl2c_5_1"])
def test_traced_call_makes_the_untraced_walk(monkeypatch, group, g, fresh):
    """On fresh providers a traced and an untraced call look up the same
    wall points in the same order and give the same result."""
    real_find = BlockProvider.find
    calls = []
    monkeypatch.setattr(BlockProvider, "find",
                        lambda p, grp, h: calls.append(h) or real_find(p, grp, h))
    walks = []
    for trace in (None, [].append):
        calls.clear()
        result = deform_to_zero(g, fresh(), group, trace)
        walks.append((list(calls), result))
    assert walks[0][0] and walks[0] == walks[1]


def test_deform_step_cost_on_warm_provider(monkeypatch):
    """A warm query crosses only the walls above the highest wall point
    that the provider remembers: it looks up no other wall point."""
    provider = BlockProvider()
    deform_to_zero(sl2r_ps_param(0, F(43, 2)), provider)
    calls = []
    real_find = BlockProvider.find
    monkeypatch.setattr(BlockProvider, "find",
                        lambda p, group, g: calls.append(g.nu) or real_find(p, group, g))
    deform_to_zero(sl2r_ps_param(0, F(45, 2)), provider)
    assert calls == [(F(21),)]


# ---------------------------------------------------------------------------
# jump tables: one solved jump per translation family and wall slot

def _wall_by_wall(g, group="sl2r"):
    """``deform_to_zero`` rebuilt with no memo and no jump table: at each
    wall, ``deform_step`` and ``irreducible_in_standards`` on the block of
    a freshly built partition that holds the wall point."""
    if not any(g.nu):
        return hs_rewrite(g, group)
    model = group_model(group)
    times = [t for t in crossing_times(g, model.cartan(g.discrete.cartan)) if t != 1]
    out = hs_rewrite(LanglandsParam(g.discrete, tuple(F(0) for _ in g.nu)), group)
    for pos, t in enumerate(times):
        gt = LanglandsParam(g.discrete, tuple(t * x for x in g.nu))
        (blk,) = [b for b in builtin_block(group, model.block_key(gt)) if b.find(gt)]
        flip = W_S if (len(times) - 1 - pos) % 2 else W_ONE
        for xi, coef in deform_step(blk, gt).terms.items():
            for child, w in irreducible_in_standards(blk, xi).terms.items():
                out.add_char(_wall_by_wall(child, group), flip * coef * w)
    return out


def _count_solves(monkeypatch):
    """Record (jump table, wall element id) per deform_step call, and count
    irreducible_in_standards calls."""
    solved, columns = [], []
    real_step, real_column = sigengine.deform_step, sigengine.irreducible_in_standards
    monkeypatch.setattr(sigengine, "deform_step",
                        lambda b, g: solved.append((id(b.jumps), g)) or real_step(b, g))
    monkeypatch.setattr(sigengine, "irreducible_in_standards",
                        lambda b, psi: columns.append(psi) or real_column(b, psi))
    return solved, columns


def test_cold_walk_solves_each_family_slot_once(monkeypatch):
    g = sl2r_ps_param(0, F(161, 2))
    want = _wall_by_wall(g)
    solved, columns = _count_solves(monkeypatch)
    p = BlockProvider()
    assert deform_to_zero(g, p) == want
    # 40 walls, all at the wall slot PS+(k) of the chain at odd k: one
    # family, one slot, one delta of two constituents DS+(k), DS-(k)
    assert len(crossing_times(g, group_model("sl2r").cartan("split"))) == 40
    assert (len(solved), len(columns)) == (1, 2)
    (shape,) = p._shapes.values()
    assert solved == [(id(shape[2]), 2)]


def test_cold_sl2c_walk_solves_no_family_slot_twice(monkeypatch):
    g = sl2c_param(3, F(17, 2))
    want = _wall_by_wall(g, "sl2c")
    solved, _ = _count_solves(monkeypatch)
    p = BlockProvider()
    assert deform_to_zero(g, p, "sl2c") == want
    assert len(solved) == len(set(solved))
    assert {table for table, _ in solved} <= {id(shape[2]) for shape in p._shapes.values()}


def test_a_jump_table_miss_builds_its_solve_data_once(monkeypatch):
    # deform_step and every irreducible_in_standards of one miss read one
    # length order and one set of Q^c columns at q = 1
    builds = []
    real_cols, real_order = sigengine._qc_cols, sigengine._length_order
    monkeypatch.setattr(sigengine, "_qc_cols",
                        lambda b, bits: builds.append(("cols", bits)) or real_cols(b, bits))
    monkeypatch.setattr(sigengine, "_length_order",
                        lambda b: builds.append("order") or real_order(b))
    for g, group in ((sl2r_ps_param(0, F(81, 2)), "sl2r"), (sl2c_param(3, F(41, 2)), "sl2c")):
        builds.clear()
        solved, _ = _count_solves(monkeypatch)
        want = _wall_by_wall(g, group)
        solved.clear(), builds.clear()
        assert deform_to_zero(g, BlockProvider(), group) == want
        assert solved
        assert sorted(builds, key=str) == [("cols", 0)] * len(solved) + ["order"] * len(solved)


# a walk on a fresh provider against the same walk on a provider warmed by
# a walk above it on the same ray: the cold lookup against the warm one
_ABOVE = st.integers(1, 4).map(lambda a: 1 + F(a, 4))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 1),
       st.integers(1, 9).flatmap(lambda d: st.integers(1, 60 * d).map(lambda n: F(n, d))),
       _ABOVE, st.integers(0, 16))
def test_sl2r_cold_walk_equals_the_warm_walk_and_the_oracle(eps, nu, above, cutoff):
    cold = deform_to_zero(sl2r_ps_param(eps, nu), BlockProvider())
    warm = BlockProvider()
    deform_to_zero(sl2r_ps_param(eps, above * nu), warm)
    # equal terms, entered in one order
    assert list(deform_to_zero(sl2r_ps_param(eps, nu), warm).terms.items()) == \
        list(cold.terms.items())
    assert ktype_signature(cold, cutoff) == oracle_signature(1 - 2 * eps, nu, cutoff)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6),
       st.integers(1, 2).flatmap(lambda d: st.integers(1, 40 * d).map(lambda n: F(n, d))),
       _ABOVE)
def test_sl2c_cold_walk_equals_the_warm_walk(m, v, above):
    cold = deform_to_zero(sl2c_param(m, v), BlockProvider(), "sl2c")
    warm = BlockProvider()
    deform_to_zero(sl2c_param(m, above * v), warm, "sl2c")
    assert list(deform_to_zero(sl2c_param(m, v), warm, "sl2c").terms.items()) == \
        list(cold.terms.items())


def _library_at_3(chain, single=None):
    """The sl2r:3 chain with Q[DS+(3), PS+(3)] = 2 as one validated block;
    with the singleton PS-(3) first when given, so that positions in the
    block differ from those in its components."""
    Q = dict(chain.Q)
    Q[(0, 2)] = (2,)
    elements = (single.elements if single else ()) + chain.elements
    return Block(chain.group, chain.inf_char, elements, Q)


def test_library_block_never_reads_a_family_table():
    chain, _ = builtin_block("sl2r", (3,))
    g = sl2r_ps_param(0, F(7, 2))
    warm = BlockProvider()
    # the odd-k chain family solves its wall slot, at 3 and at 1
    deform_to_zero(sl2r_ps_param(0, F(9, 2)), warm)
    assert as_dict(deform_to_zero(g, warm))["DS+(3)"] == ONE_MINUS_S
    library = [_library_at_3(chain)]
    warm.register(library)
    fresh = BlockProvider()
    fresh.register(library)
    want = deform_to_zero(g, fresh)
    assert as_dict(want)["DS+(3)"] == WElem(2, -2)
    assert deform_to_zero(g, warm) == want


def test_library_components_keep_tables_of_their_own():
    chain, single = builtin_block("sl2r", (3,))
    library = split_components(_library_at_3(chain, single))
    assert len(library) == 2
    assert library[0].jumps is not library[1].jumps
    queries = [sl2r_ps_param(0, F(7, 2)), sl2r_ps_param(0, F(3)), sl2r_ps_param(1, F(3)),
               sl2r_ps_param(0, F(11, 2)), sl2r_ps_param(1, F(9, 2))]
    warm = BlockProvider()
    for g in queries:
        deform_to_zero(g, warm)
        unitary_test(g, warm)
    warm.register(library)
    fresh = BlockProvider()
    fresh.register(library)
    for g in queries:
        # PS+(3) is in the chain component, PS-(3) in the singleton
        assert deform_to_zero(g, warm) == deform_to_zero(g, fresh), g
        got, want = unitary_test(g, warm), unitary_test(g, fresh)
        assert (got.verdict, got.B) == (want.verdict, want.B), g


# ---------------------------------------------------------------------------
# unitarity

CLASSICAL = [
    (0, F(0), True),
    (0, F(1, 2), True),
    (0, F(1), True),
    (0, F(5, 4), False),
    (0, F(2), False),
    (1, F(0), True),
    (1, F(1, 2), False),
    (1, F(1), False),
    (1, F(2), False),
]


@pytest.mark.parametrize("eps,nu,want", CLASSICAL)
def test_unitary_verdicts(provider, eps, nu, want):
    res = unitary_test(sl2r_ps_param(eps, nu), provider)
    assert res.is_unitary == want


def test_one_parameter_is_named_by_its_basis():
    # a term is its parameter; the basis decides only how it is printed
    g = sl2r_ps_param(0, 0)
    (b, _, _) = builtin_block("sl2r", (0,))
    standard = irreducible_in_standards(b, g)
    tempered = deform_to_zero(g, BlockProvider())
    assert list(standard.terms) == list(tempered.terms) == [g]
    assert [label.text for label, _ in standard.items()] == ["PS+(0)"]
    assert [label.text for label, _ in tempered.items()] == ["PS0"]


def test_untraced_queries_name_no_term(monkeypatch):
    named = []
    for attr in ("label", "label_text"):
        real = getattr(type(SL2R), attr)
        monkeypatch.setattr(type(SL2R), attr,
                            lambda self, g, attr=attr, real=real:
                            named.append((attr, g)) or real(self, g))
    deform_to_zero(sl2r_ps_param(0, F(81, 2)), BlockProvider())
    res = unitary_test(sl2r_ps_param(1, F(79, 2)), BlockProvider())
    assert named == []
    assert res.verdict == "nonunitary"
    assert 0 < len(res.violating) < len(res.B.terms)
    violations = res.violations
    # the tempered name of each violating term, once, and of no other
    tempered = [g for attr, g in named if attr == "label_text"]
    assert len(tempered) == len(violations) and set(tempered) == res.violating
    assert violations == [label.text for label, _ in res.B.items()
                          if label.param in res.violating]


def test_unitary_certificates(provider):
    res = unitary_test(sl2r_ps_param(0, 1), provider)
    assert res.verdict == "unitary"
    assert as_dict(res.B) == {
        "PS0": W_ONE,
        "DS+(1)": -W_ONE,
        "DS-(1)": -W_ONE,
    }
    res = unitary_test(sl2r_ps_param(1, 1), provider)
    assert res.verdict == "nonunitary"
    assert res.violations
    res = unitary_test(sl2r_ps_param(0, F(3, 2)), provider)
    assert res.verdict == "nonunitary"
    assert "W-components" in res.reason


def test_unitary_unsupported(provider):
    with pytest.raises(UnsupportedUnequalRank):
        unitary_test(sl2c_param(0, 1), provider, group="sl2c")
    with pytest.raises(UnsupportedGroup):
        unitary_test(sl2r_ps_param(0, 1), provider, group="so5")


def test_tempered_is_unitary(provider):
    res = unitary_test(sl2r_ds_param(1, 2), provider)
    assert res.is_unitary
    res = unitary_test(sl2r_ps_param(0, 0), provider)
    assert res.is_unitary


def test_tempered_parameter_of_an_unequal_rank_group_is_unitary(provider):
    # nu = 0 reads no c-form comparison, so sl2c answers it
    res = unitary_test(sl2c_param(3, 0), provider, "sl2c")
    assert res.verdict == "unitary"
    assert res.reason == "tempered parameter (nu = 0)"
    assert res.B == hs_rewrite(sl2c_param(3, 0), "sl2c")


@pytest.mark.parametrize("eps,nu", [(0, F(3, 2)), (0, F(1)), (1, F(1, 2)), (0, F(0))])
def test_zero_nu_im_is_a_real_parameter(provider, eps, nu):
    g = sl2r_ps_param(eps, nu)
    z = LanglandsParam(g.discrete, g.nu, (F(0),))
    # a fresh provider per side, so that neither answer is a memo hit
    assert unitary_test(z, provider) == unitary_test(g, BlockProvider())
    assert deform_to_zero(z, provider) == deform_to_zero(g, BlockProvider())


@pytest.mark.parametrize("nu", [F(3, 2), F(0)])
def test_nonzero_nu_im_is_rejected(provider, nu):
    g = sl2r_ps_param(0, nu)
    h = LanglandsParam(g.discrete, g.nu, (F(1, 2),))
    with pytest.raises(ValidationError, match="real parameters"):
        unitary_test(h, provider)
    with pytest.raises(ValidationError, match="real parameters"):
        deform_to_zero(h, provider)


# ---------------------------------------------------------------------------
# K-types

def test_sl2r_lowest_ktype():
    assert SL2R.lowest_ktype(sl2r_ds_param(1, 1)) == 2
    assert SL2R.lowest_ktype(sl2r_ds_param(-1, 1)) == -2
    assert SL2R.lowest_ktype(sl2r_ds_param(1, 0)) == 1
    assert SL2R.lowest_ktype(sl2r_ps_param(0, 2)) == 0


def test_ktype_signature_spherical_wall(provider):
    sc = deform_to_zero(sl2r_ps_param(0, F(3, 2)), provider)
    kt = ktype_signature(sc, 4)
    assert as_dict(kt) == {0: W_ONE, 2: W_S, -2: W_S, 4: W_S, -4: W_S}


def test_ktype_signature_trivial(provider):
    sc = deform_to_zero(sl2r_ps_param(0, 1), provider)
    kt = ktype_signature(sc, 6)
    assert set(as_dict(kt).values()) == {W_ONE}


def test_ktype_signature_rejects_wrong_basis():
    sc = SignatureChar("sl2r", "standard")
    with pytest.raises(ValueError):
        ktype_signature(sc, 4)


def test_ktype_signature_has_no_sl2c_table():
    sc = hs_rewrite(sl2c_param(3, 0), "sl2c")
    with pytest.raises(UnsupportedGroup, match="^no built-in K-type table for group 'sl2c'$"):
        ktype_signature(sc, 4)


def test_add_char_refuses_to_mix_bases():
    sc = SignatureChar("sl2r", "standard", {sl2r_ps_param(0, 1): W_ONE})
    with pytest.raises(ValueError, match="^cannot mix bases 'standard' and 'irreducible'$"):
        sc.add_char(SignatureChar("sl2r", "irreducible", {sl2r_ps_param(0, 1): W_ONE}))
    assert sc.terms == {sl2r_ps_param(0, 1): W_ONE}
