"""Acceptance criteria.

Each test prints one PASS line for its criterion; the assertions carry the
actual checks.  Criteria 1 and 5 are time-boxed.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from sigzero.blocks import (
    Block,
    BlockElement,
    BlockProvider,
    SL2C_CARTAN,
    SL2R_DATUM,
    SL2R_SPLIT,
    block_to_json_obj,
    builtin_block,
    invert_multiplicity,
    parse_block,
    serialize_block,
    sl2c_param,
    sl2r_ds_param,
    sl2r_ps_param,
)
from sigzero.errors import InvariantViolation
from sigzero.jantzen import (
    RAT_ZERO,
    RatFn,
    _c_ladder,
    jantzen_levels,
    oracle_signature,
    oracle_unitary,
    sl2_ktypes,
)
from sigzero.params import hyperplanes, parse_frac
from sigzero.rootdata import orientation_number
from sigzero.sigengine import (
    deform_to_zero,
    ktype_signature,
    signature_P,
    signature_Q,
    unitary_test,
)
from sigzero.sigring import W_ONE, W_S, WElem, WPoly

F = Fraction

GRID = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(5, 4), F(3, 2), F(2), F(3), F(7, 2)]


def classical_unitary(eps, nu):
    if eps == 0:
        return 0 <= nu <= 1
    return nu == 0


# ---------------------------------------------------------------------------

def test_criterion_1_sl2r_unitary_dual():
    start = time.perf_counter()
    provider = BlockProvider()
    for eps, parity in ((0, 1), (1, -1)):
        for nu in GRID:
            verdict = unitary_test(sl2r_ps_param(eps, nu), provider).is_unitary
            assert verdict == classical_unitary(eps, nu), (eps, nu)
            assert verdict == oracle_unitary(parity, nu), (eps, nu)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "criterion 1 exceeded 1 s: %.3f" % elapsed
    print("[PRIMARY 1] SL(2,R) unitary dual on the grid, both parities: PASS"
          " (%.3f s)" % elapsed)


def test_criterion_2_oracle_equivalence():
    provider = BlockProvider()
    for eps, parity in ((0, 1), (1, -1)):
        for nu in GRID:
            sc = deform_to_zero(sl2r_ps_param(eps, nu), provider)
            engine = dict(ktype_signature(sc, 8).items())
            oracle = oracle_signature(parity, nu, 8)
            assert engine == oracle, (eps, nu, engine, oracle)
    print("[PRIMARY 2] oracle_signature = ktype_signature o deform_to_zero"
          " at cutoff 8: PASS")


def test_ktype_signature_is_a_weight_table_in_the_oracles_shape():
    provider = BlockProvider()
    for eps, parity in ((0, 1), (1, -1)):
        for nu in GRID:
            kt = ktype_signature(deform_to_zero(sl2r_ps_param(eps, nu), provider), 8)
            assert type(kt) is dict and list(kt) == sorted(kt), (eps, nu)
            assert kt == oracle_signature(parity, nu, 8), (eps, nu)


def test_ktype_signature_matches_the_oracle_at_every_cutoff():
    # a negative cutoff holds no weight: not even the spherical weight 0
    provider = BlockProvider()
    for eps, parity in ((0, 1), (1, -1)):
        for nu in (F(1, 2), F(3, 2), F(7, 2), F(9, 4), F(5)):
            sc = deform_to_zero(sl2r_ps_param(eps, nu), provider)
            for cutoff in range(-3, 13):
                assert ktype_signature(sc, cutoff) == oracle_signature(
                    parity, nu, cutoff), (eps, nu, cutoff)


def test_B_at_a_wall_point_is_the_signature_of_J():
    # J is the quotient on the K-types where c_n(nu) != 0, with the sign of
    # c_n(nu) on each: the K-type expansion of B must be that form, at every
    # integer nu up to 13, with an odd or an even number of walls below
    cutoff = 16
    for eps, parity in ((0, 1), (1, -1)):
        c = _c_ladder(parity, cutoff)
        for nu in range(1, 14):
            res = unitary_test(sl2r_ps_param(eps, nu), BlockProvider())
            want = {}
            for n in sl2_ktypes(parity, cutoff):
                value = c[abs(n)].evaluate(nu)
                if value:
                    want[n] = W_ONE if value > 0 else W_S
            assert ktype_signature(res.B, cutoff) == want, (eps, nu)
            assert res.is_unitary == classical_unitary(eps, nu), (eps, nu)


def _identity_blocks():
    out = []
    for ic in ((0,), (1,), (2,), (3,), (F(1, 2),), (F(5, 2),)):
        out.extend(builtin_block("sl2r", ic))
    for ic in ((3, 1), (2, 0), (4, 2), (2, 1), (3, 0), (3, F(1, 2))):
        out.extend(builtin_block("sl2c", ic))
    # ingested: a library round-tripped through the serializer, and a
    # handcrafted chain with a degree-one entry
    b3, single = builtin_block("sl2r", (5,))
    merged = Block(
        b3.group,
        b3.inf_char,
        tuple(b3.elements) + tuple(single.elements),
        {**b3.Q, **single.Q},
    )
    out.append(parse_block(serialize_block(merged)))
    chain = Block(
        "sl2r",
        (99,),
        (
            BlockElement(0, 0, 0, 0, sl2r_ds_param(1, 1), frozenset()),
            BlockElement(1, 0, 1, 0, sl2r_ds_param(-1, 1), frozenset()),
            BlockElement(2, 0, 3, 2, sl2r_ds_param(1, 3), frozenset()),
        ),
        {(0, 1): (1,), (1, 2): (1,), (0, 2): (0, 1)},
    )
    out.append(parse_block(serialize_block(chain)))
    return out


def test_criterion_3_matrix_identities():
    for b in _identity_blocks():
        ids = list(b.ids())
        lengths = {e.id: e.length for e in b.elements}
        orients = {e.id: e.orient for e in b.elements}
        # sum m M = delta at q = 1, M = P at q = 1 with the sign
        # (-1)^(l(c) - l(r))
        M = {(r, c): -sum(v) if (lengths[c] - lengths[r]) % 2 else sum(v)
             for (r, c), v in invert_multiplicity(b).items()}
        for r in ids:
            for c in ids:
                tot = sum(
                    sum(b.q_poly(r, k)) * M.get((k, c), 0) for k in ids
                )
                assert tot == (1 if r == c else 0), (b.group, b.inf_char, r, c)
        # signature_P o signature_Q = signed identity over W[q]
        Qc, Pc = signature_Q(b), signature_P(b)
        zero = WPoly.from_int_coeffs(())
        one = WPoly.from_int_coeffs((1,))
        for r in ids:
            for c in ids:
                acc = zero
                for k in ids:
                    p, q = Pc.get((r, k)), Qc.get((k, c))
                    if p is not None and q is not None:
                        sign = (-1) ** ((lengths[r] + lengths[k]) % 2)
                        acc = acc + (p * q) * sign
                assert acc == (one if r == c else zero), (b.group, r, c)
        # signature_P equals the twisted character polynomials entrywise
        P = invert_multiplicity(b)
        for (r, c), coeffs in P.items():
            want = WPoly.from_int_coeffs(coeffs).twist_sq(
                orients[c] - orients[r]
            )
            assert Pc[(r, c)] == want, (b.group, r, c)
    print("[PRIMARY 3] multiplicity and signature matrix identities on"
          " built-in and ingested blocks: PASS")


def test_criterion_4_ring_properties():
    rng = random.Random(20260825)
    failures = 0
    for _ in range(1000):
        a = WElem(rng.randint(-9, 9), rng.randint(-9, 9))
        b = WElem(rng.randint(-9, 9), rng.randint(-9, 9))
        c = WElem(rng.randint(-9, 9), rng.randint(-9, 9))
        if (a * b) * c != a * (b * c):
            failures += 1
        if a * (b + c) != a * b + a * c:
            failures += 1
        if (a * b).forget() != a.forget() * b.forget():
            failures += 1
        if WElem(0, 1) * WElem(0, 1) != WElem(1, 0):
            failures += 1
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]
        p = WPoly.from_int_coeffs(coeffs)
        q = WPoly.from_int_coeffs([rng.randint(-5, 5) for _ in range(3)])
        pq = p * q
        if WElem(sum(pq.a), sum(pq.b)) != WElem(sum(p.a), sum(p.b)) * WElem(sum(q.a), sum(q.b)):
            failures += 1
    assert failures == 0
    print("[PRIMARY 4] 1000 randomized W and W-Laurent identities: PASS")


def _planted_family(rng, n, t0):
    tm = RatFn((-int(t0), 1))
    mat = []
    orders = []
    for i in range(n):
        r = rng.randint(0, 3)
        orders.append(r)
        f = RatFn((rng.choice([1, -1, 2, -3]),))
        for _ in range(r):
            f = f * tm
        mat.append([f if i == j else RAT_ZERO for j in range(n)])
    for _ in range(rng.randint(1, 4)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = RatFn((rng.randint(-2, 2), rng.randint(-1, 1)))
        for k in range(n):
            mat[i][k] = mat[i][k] + c * mat[j][k]
    for _ in range(rng.randint(1, 4)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = RatFn((rng.randint(-2, 2), rng.randint(-1, 1)))
        for k in range(n):
            mat[k][i] = mat[k][i] + c * mat[k][j]
    return mat, orders


def test_criterion_5_jantzen_determinant_identity():
    start = time.perf_counter()
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        t0 = rng.choice([0, 1, -1, 2])
        mat, orders = _planted_family(rng, n, t0)
        levels = jantzen_levels(mat, t0)
        got = sorted(r for r, d, _ in levels for _ in range(d))
        assert got == sorted(orders)
        assert sum(r * d for r, d, _ in levels) == sum(orders)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, "criterion 5 exceeded 5 s: %.3f" % elapsed
    print("[PRIMARY 5] D = sum r dim on 200 planted families up to size 6:"
          " PASS (%.3f s)" % elapsed)


def test_criterion_6_arrangement_properties():
    # no hyperplane through the origin
    for d, cart in (
        (sl2r_ps_param(0, 1).discrete, SL2R_SPLIT),
        (sl2r_ps_param(1, 1).discrete, SL2R_SPLIT),
        (sl2c_param(3, 1).discrete, SL2C_CARTAN),
        (sl2c_param(0, 1).discrete, SL2C_CARTAN),
    ):
        assert all(h.level > 0 for h in hyperplanes(d, cart, 8))

    # orientation number jumps by exactly 1 across each reorienting wall
    for eps, grading in ((0, 1), (1, -1)):
        d = sl2r_ps_param(eps, 1).discrete
        reorient = [
            h.level
            for h in hyperplanes(d, SL2R_SPLIT, 5)
            if h.kind == "reorient_positive"
        ]
        assert reorient

        def ell_o(nu):
            return orientation_number(
                SL2R_DATUM, SL2R_SPLIT.root_class, {0: grading}, (nu,)
            )

        for w in reorient:
            assert abs(ell_o(w + F(1, 4)) - ell_o(w - F(1, 4))) == 1
        # constant between consecutive integer walls
        for k in range(4):
            assert ell_o(F(k) + F(1, 8)) == ell_o(F(k) + F(7, 8))

    # deform_to_zero constant on each open facet, segments up to level 4
    provider = BlockProvider()
    for eps, walls in ((0, [F(1), F(3)]), (1, [F(2), F(4)])):
        cuts = [F(0)] + [w for w in walls if w < 4] + [F(4)]
        for a, b in zip(cuts, cuts[1:]):
            lo = a + (b - a) / 3
            hi = a + 2 * (b - a) / 3
            d_lo = deform_to_zero(sl2r_ps_param(eps, lo), provider)
            d_hi = deform_to_zero(sl2r_ps_param(eps, hi), provider)
            assert d_lo == d_hi, (eps, a, b)
    print("[PRIMARY 6] arrangement positivity, reorientation jumps, facet"
          " constancy: PASS")


def test_criterion_7_recursion_bound():
    records = []
    provider = BlockProvider()
    for eps in (0, 1):
        for nu in GRID:
            deform_to_zero(sl2r_ps_param(eps, nu), provider, trace=records.append)
    recurse = [r for r in records if r["event"] == "recurse"]
    assert recurse, "expected recursive deformation records on the grid"
    for r in recurse:
        assert parse_frac(r["dlambda_sq"]) < parse_frac(r["cap"]), r
    print("[PRIMARY 7] recursion bound |dLambda'|^2 < |(dLambda,nu)|^2 on"
          " %d recursive calls: PASS" % len(recurse))


def test_criterion_8_block_round_trip():
    all_ics = [
        ("sl2r", (0,)),
        ("sl2r", (1,)),
        ("sl2r", (2,)),
        ("sl2r", (3,)),
        ("sl2r", (F(1, 2),)),
        ("sl2r", (F(7, 2),)),
        ("sl2c", (3, 1)),
        ("sl2c", (2, 0)),
        ("sl2c", (2, 1)),
        ("sl2c", (3, F(1, 2))),
    ]
    for group, ic in all_ics:
        for b in builtin_block(group, ic):
            text = serialize_block(b)
            assert serialize_block(parse_block(text)) == text, (group, ic)

    # malformed files are rejected with the named invariant
    (b, _) = builtin_block("sl2r", (2,))

    def tampered(mutate):
        obj = block_to_json_obj(b)
        mutate(obj)
        return json.dumps(obj)

    cases = [
        (
            lambda o: [
                e.update(coeffs=[0, 1])
                for e in o["Q"]
                if e["row"] == 0 and e["col"] == 2
            ],
            "degree-bound",
        ),
        (lambda o: o["elements"][0].update(orient=1), "orientation-parity"),
        (
            lambda o: o["Q"].append({"row": 2, "col": 0, "coeffs": [1]}),
            "triangularity",
        ),
    ]
    for mutate, name in cases:
        with pytest.raises(InvariantViolation, match=name):
            parse_block(tampered(mutate))
    print("[PRIMARY 8] byte-identical block round trips and named"
          " invariant rejections: PASS")
