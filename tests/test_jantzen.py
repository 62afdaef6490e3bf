"""Jantzen filtration machinery and the intertwining oracle."""

import copy
import json
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from sigzero import jantzen
from sigzero.blocks import SL2R_SPLIT, sl2r_ps_param
from sigzero.errors import DegenerateResidual, SchemaError, SigzeroError, SingularFamily
from sigzero.intpoly import p_add, p_divexact, p_mul, p_neg, p_ord, p_shift
from sigzero.jantzen import (
    RAT_ONE,
    RAT_ZERO,
    RatFn,
    jantzen_levels,
    level_signatures,
    oracle_signature,
    oracle_unitary,
    parse_ratmatrix,
    ratmatrix_to_json_obj,
    sl2_c_function,
    sl2_intertwining,
    sl2_ktypes,
)
from sigzero.params import hyperplanes
from sigzero.sigring import WElem, W_ONE, W_S

F = Fraction
T = RatFn((0, 1))
T_MINUS_1 = RatFn((-1, 1))


# ---------------------------------------------------------------------------
# rational functions

def test_ratfn_normalization():
    assert RatFn((2, 2), (4,)) == RatFn((1, 1), (2,))
    assert RatFn((1,), (-2,)) == RatFn((-1,), (2,))
    # (t^2-1)/(t-1) = t+1
    assert RatFn((-1, 0, 1), (-1, 1)) == RatFn((1, 1))
    assert RatFn((0,), (5,)) == RAT_ZERO


def test_ratfn_takes_ints_only():
    # checked as given: a bool would print as JSON true, and a float zero
    # is refused before it is trimmed
    for num, den in [((True,), (1,)), ((1,), (True,)), ((F(1, 2),), (1,)),
                     ((0.5,), (1,)), ((1, 0.0), (1,)), ((0.0,), (1,)), ((1,), (2.0,))]:
        with pytest.raises(TypeError, match="^RatFn coefficients must be ints"):
            RatFn(num, den)


def test_ratfn_arithmetic():
    half = RatFn((1,), (2,))
    third = RatFn((1,), (3,))
    assert half + third == RatFn((5,), (6,))
    assert half * third == RatFn((1,), (6,))
    assert T / T == RAT_ONE
    assert T - T == RAT_ZERO
    with pytest.raises(ZeroDivisionError):
        RAT_ONE / RAT_ZERO


rational_fns = st.builds(
    RatFn,
    st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(tuple),
    st.just((1, 1)),
)


@given(rational_fns, rational_fns, rational_fns)
@settings(max_examples=60)
def test_ratfn_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_valuation_and_residual():
    f = RatFn((3,), (1,)) * T_MINUS_1 * T_MINUS_1 / RatFn((1, 1))
    assert f.valuation(1) == 2
    assert f.residual(1) == F(3, 2)
    assert f.evaluate(1) == 0
    assert RAT_ZERO.valuation(1) is None
    g = RAT_ONE / T_MINUS_1
    assert g.valuation(1) == -1


def test_ratfn_residual_of_zero_and_value_at_a_pole_raise():
    with pytest.raises(ZeroDivisionError, match="^zero function has no residual$"):
        RAT_ZERO.residual(F(1))
    with pytest.raises(ZeroDivisionError, match="^pole at t0$"):
        RatFn((1,), (-1, 1)).evaluate(F(1))
    assert RatFn((1,), (-1, 1)).evaluate(F(3)) == F(1, 2)


def test_ratfn_json_round_trip():
    m = [[T_MINUS_1, RAT_ONE], [RAT_ONE, T]]
    obj = ratmatrix_to_json_obj(m)
    assert parse_ratmatrix(obj) == m


def test_parse_ratmatrix_rejects_malformed():
    with pytest.raises(SchemaError):
        parse_ratmatrix("[")
    with pytest.raises(SchemaError):
        parse_ratmatrix([[{"num": [1]}], [{"num": [1]}]])  # not square
    with pytest.raises(SchemaError):
        parse_ratmatrix([[{"den": [1]}]])  # missing num
    with pytest.raises(SchemaError):
        parse_ratmatrix([[{"num": [1.5]}]])  # float coefficient


_SHAPE = 'entries must be {"num": [...], "den": [...]}'


@pytest.mark.parametrize(
    "cell,text",
    [
        # the reader checks the shape; RatFn refuses each coefficient
        ({"num": [True]}, "bad entry: RatFn coefficients must be ints (got True)"),
        ({"num": ["1"]}, "bad entry: RatFn coefficients must be ints (got '1')"),
        ({"num": [1.5]}, "bad entry: RatFn coefficients must be ints (got 1.5)"),
        ({"num": [[1]]}, "bad entry: RatFn coefficients must be ints (got [1])"),
        ({"num": "12"}, _SHAPE),
        ({"num": 5}, _SHAPE),
        ({"num": [1], "den": None}, _SHAPE),
    ],
)
def test_parse_ratmatrix_refuses_each_fact_with_one_text(cell, text):
    for data in ([[cell]], json.dumps([[cell]])):
        with pytest.raises(SchemaError) as err:
            parse_ratmatrix(data)
        assert str(err.value) == text


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit in this Python")
@pytest.mark.parametrize("key", ["num", "den"])
def test_parse_ratmatrix_rejects_integer_literal_past_digit_limit(key):
    # json.loads raises a plain ValueError on an integer literal longer than
    # Python's int-to-str limit
    text = '[[{"%s": [%s]}]]' % (key, "9" * 5000)
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_ratmatrix(text)


def _field_paths(obj, prefix=()):
    """Every key and list index of a JSON value, as paths from the root."""
    if isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield prefix + (k,)
            yield from _field_paths(v, prefix + (k,))


# a 2x2 family in both accepted layouts: a bare array and {"entries": ...}
_VALID_MATRIX = {"entries": ratmatrix_to_json_obj([[T_MINUS_1, RAT_ONE], [RAT_ZERO, T]])}
_VALID_MATRIX["entries"][1][1]["den"] = [2, 0, 1]
# stands for a JSON integer literal of 5,000 digits, past Python's
# int-to-str limit
_LONG = "<5000-digit integer>"
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["num", "den", "entries", 0, 1, -1, _LONG]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["num", "den", "entries"]) | st.text(max_size=3),
                      kids, max_size=3),
    max_leaves=6,
)


@seed(12)
@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.sampled_from(list(_field_paths(_VALID_MATRIX))), _JSON)
def test_parse_ratmatrix_fuzzed_field_raises_only_sigzero_errors(bare, path, value):
    obj = copy.deepcopy(_VALID_MATRIX)
    cur = obj
    for k in path[:-1]:
        cur = cur[k]
    cur[path[-1]] = value
    if bare and isinstance(obj.get("entries"), list):
        obj = obj["entries"]
    text = json.dumps(obj).replace(json.dumps(_LONG), "9" * 5000)
    for data in (text, text.encode("utf-8")):
        try:
            parse_ratmatrix(data)
        except SigzeroError:
            pass


@seed(13)
@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=40) | st.text(max_size=40))
def test_parse_ratmatrix_raw_input_raises_only_sigzero_errors(data):
    try:
        parse_ratmatrix(data)
    except SigzeroError:
        pass


def test_parse_ratmatrix_rejects_bad_utf8_and_deep_nesting():
    for data in (b"\xff[[", "[" * 100000 + "]" * 100000):
        with pytest.raises(SchemaError, match="not valid JSON"):
            parse_ratmatrix(data)


# ---------------------------------------------------------------------------
# filtration

def test_jantzen_levels_diagonal_example():
    ls = jantzen_levels([[RAT_ONE, RAT_ZERO], [RAT_ZERO, T_MINUS_1]], 1)
    assert [(r, d) for r, d, _ in ls] == [(0, 1), (1, 1)]
    assert sum(r * d for r, d, _ in ls) == 1


def test_jantzen_levels_off_diagonal_example():
    ls = jantzen_levels([[RAT_ONE, RAT_ONE], [RAT_ONE, T]], 1)
    assert [(r, d) for r, d, _ in ls] == [(0, 1), (1, 1)]


def test_jantzen_levels_identity():
    ls = jantzen_levels([[RAT_ONE, RAT_ZERO], [RAT_ZERO, RAT_ONE]], 1)
    assert [(r, d) for r, d, _ in ls] == [(0, 2)]


def test_jantzen_levels_bases_at_point():
    ls = jantzen_levels([[RAT_ONE, RAT_ZERO], [RAT_ZERO, T_MINUS_1]], 1)
    bases = {r: vs for r, _, vs in ls}
    assert bases[0] == [(F(1), F(0))]
    assert bases[1] == [(F(0), F(1))]


def test_singular_family():
    with pytest.raises(SingularFamily):
        jantzen_levels([[RAT_ONE, RAT_ONE], [RAT_ONE, RAT_ONE]], 1)


def test_unit_equivalence_invariance():
    # multiplying by matrices invertible at t0 preserves the level profile
    L = [[RAT_ONE, RAT_ZERO], [RAT_ZERO, T_MINUS_1 * T_MINUS_1]]
    U = [[RAT_ONE, T], [RAT_ZERO, RAT_ONE]]
    V = [[RAT_ONE, RAT_ZERO], [RatFn((2,)), RAT_ONE]]

    def mul(A, B):
        n = len(A)
        return [
            [
                sum((A[i][k] * B[k][j] for k in range(n)), RAT_ZERO)
                for j in range(n)
            ]
            for i in range(n)
        ]

    ls0 = [(r, d) for r, d, _ in jantzen_levels(L, 1)]
    ls1 = [(r, d) for r, d, _ in jantzen_levels(mul(mul(U, L), V), 1)]
    assert ls0 == ls1


def test_level_signatures_examples():
    one, z = RAT_ONE, RAT_ZERO
    assert level_signatures([[one, z], [z, T_MINUS_1]], 1) == [
        (0, W_ONE),
        (1, W_ONE),
    ]
    assert level_signatures([[one, z], [z, -T_MINUS_1]], 1) == [
        (0, W_ONE),
        (1, W_S),
    ]
    sq = T_MINUS_1 * T_MINUS_1
    assert level_signatures([[sq, z], [z, -one]], 1) == [(0, W_S), (2, W_ONE)]


def test_level_signatures_off_diagonal_pivot():
    sig = level_signatures([[T, RAT_ONE], [RAT_ONE, T]], 0)
    assert sig == [(0, WElem(1, 1))]


def test_level_signatures_total_for_image():
    # nondegenerate at t0: the for-images over all levels sum to the size
    sig = level_signatures(
        [[T_MINUS_1, RAT_ONE], [RAT_ONE, T_MINUS_1 * T_MINUS_1]], 1
    )
    assert sum(w.forget() for _, w in sig) == 2


def test_level_signatures_requires_symmetry():
    with pytest.raises(ValueError):
        level_signatures([[RAT_ONE, T], [RAT_ZERO, RAT_ONE]], 1)


def test_level_signatures_checks_the_determinant_order(monkeypatch):
    # with ord det misreported, both eliminations must notice that the
    # layer orders no longer add up to it: the first component's Bareiss
    # order of each elimination is one too high
    bareiss_order, calls = jantzen._bareiss_order, []

    def misreported(L, t0):
        calls.append(1)
        return bareiss_order(L, t0) + (len(calls) == 1)

    monkeypatch.setattr(jantzen, "_bareiss_order", misreported)
    L = [[RAT_ONE, RAT_ZERO], [RAT_ZERO, T_MINUS_1]]
    with pytest.raises(SingularFamily, match="ord det = 2"):
        jantzen_levels(L, 1)
    calls.clear()
    with pytest.raises(DegenerateResidual, match="ord det = 2"):
        level_signatures(L, 1)


def test_degenerate_residual():
    with pytest.raises(DegenerateResidual):
        level_signatures([[RAT_ZERO, RAT_ZERO], [RAT_ZERO, RAT_ONE]], 1)


# ---------------------------------------------------------------------------
# the oracle

def test_c_function_normalizations():
    assert sl2_c_function(1, 0) == RAT_ONE
    assert sl2_c_function(-1, 1) == RAT_ONE
    assert sl2_c_function(-1, -1) == RAT_ONE
    # c_{+-2} is a ratio of two linear factors vanishing at nu = 1
    c2 = sl2_c_function(1, 2)
    assert c2 == RatFn((1, -1), (1, 1))
    assert c2.evaluate(1) == 0
    assert sl2_c_function(1, -2) == c2


def test_c_function_parity_checks():
    with pytest.raises(ValueError):
        sl2_c_function(1, 3)
    with pytest.raises(ValueError):
        sl2_c_function(-1, 2)
    with pytest.raises(ValueError):
        sl2_c_function(2, 2)


def test_intertwining_matrix_shape():
    kt = sl2_ktypes(1, 4)
    assert kt == [-4, -2, 0, 2, 4]
    m = sl2_intertwining(1, 4)
    assert len(m) == 5
    for i, n in enumerate(kt):
        assert m[i][i] == sl2_c_function(1, n)
        assert all(not m[i][j] for j in range(5) if j != i)


def test_zero_locus_matches_reducibility_walls():
    # the vanishing set of c_n must be the reducibility hyperplane levels
    sph_walls = {
        h.level
        for h in hyperplanes(sl2r_ps_param(0, 1).discrete, SL2R_SPLIT, 8)
        if h.kind == "reducibility"
    }
    zeros = set()
    for n in (2, 4, 6, 8):
        f = sl2_c_function(1, n)
        zeros |= {F(w) for w in range(1, 9) if f.evaluate(w) == 0}
    assert zeros == {w for w in sph_walls if w < 8}
    ns_walls = {
        h.level
        for h in hyperplanes(sl2r_ps_param(1, 1).discrete, SL2R_SPLIT, 8)
        if h.kind == "reducibility"
    }
    zeros = set()
    for n in (3, 5, 7):
        f = sl2_c_function(-1, n)
        zeros |= {F(w) for w in range(1, 9) if f.evaluate(w) == 0}
    assert zeros == {w for w in ns_walls if w < 7}


def test_oracle_determinant_identity_at_wall():
    m = sl2_intertwining(1, 6)
    ls = jantzen_levels(m, 1)
    assert [(r, d) for r, d, _ in ls] == [(0, 1), (1, 6)]


def test_oracle_signature_examples():
    sig = oracle_signature(1, F(1, 2), 4)
    assert set(sig.values()) == {W_ONE}
    sig = oracle_signature(1, F(3, 2), 4)
    assert sig == {0: W_ONE, 2: W_S, -2: W_S, 4: W_S, -4: W_S}


def test_oracle_matches_engine_nonspherical_wall():
    # the nonprejudged example: odd parity at the even wall, cutoff 3
    from sigzero.blocks import BlockProvider
    from sigzero.sigengine import deform_to_zero, ktype_signature

    sig = oracle_signature(-1, 1, 3)
    sc = deform_to_zero(sl2r_ps_param(1, 1), BlockProvider())
    kt = ktype_signature(sc, 3)
    engine = {lab: w for lab, w in kt.items()}
    assert sig == engine


def test_level_signatures_of_one_c_function_are_its_valuation_and_residual():
    # [[c_n]] has one layer, at the valuation of c_n and with the sign of its
    # residual: the pair oracle_signature reads off c_n itself
    points = [F(k) for k in range(-21, 22)] + [F(k, q) for q in (2, 3, 7)
                                                 for k in range(-43, 44, 3)]
    for parity in (1, -1):
        for n in range(0 if parity == 1 else 1, 21, 2):
            f = sl2_c_function(parity, n)
            for nu in points:
                want = [(f.valuation(nu), W_ONE if f.residual(nu) > 0 else W_S)]
                assert level_signatures([[f]], nu) == want, (parity, n, nu)


def test_oracle_signature_runs_no_elimination(monkeypatch):
    calls = []
    for name in ("jantzen_levels", "level_signatures"):
        fn = getattr(jantzen, name)
        monkeypatch.setattr(jantzen, name,
                            lambda *a, fn=fn: calls.append(1) or fn(*a))
    for parity in (1, -1):
        for nu in (F(1, 2), F(1), F(2), F(7, 3), F(5)):
            oracle_signature(parity, nu, 8)
    assert not calls


def _sym_pole():
    path = os.path.join(os.path.dirname(__file__), "fixtures", "sym_pole.json")
    with open(path, "rb") as fh:
        return parse_ratmatrix(fh.read())


@pytest.mark.parametrize("call", [
    lambda L: jantzen_levels(L, 0.1),
    lambda L: level_signatures(L, 0.5),
    lambda L: jantzen_levels(L, "0.5"),
    lambda L: L[0][0].valuation(0.5),
    lambda L: L[0][0].residual(0.5),
    lambda L: L[0][0].evaluate(0.1),
    lambda L: oracle_signature(1, 2.0, 6),
    lambda L: oracle_unitary(-1, 0.5),
], ids=["levels", "signatures", "decimal-string", "valuation", "residual",
        "evaluate", "oracle-signature", "oracle-unitary"])
def test_points_are_exact_rationals(call):
    # as the parameter constructors do: a float, or a decimal string, is
    # refused rather than expanded at its binary value
    with pytest.raises(ValueError, match="^not an exact rational: "):
        call(_sym_pole())


def test_points_read_as_fractions_ints_and_strings():
    L = _sym_pole()
    want = jantzen_levels(L, F(1, 2))
    assert jantzen_levels(L, "1/2") == want
    assert level_signatures(L, "1/2") == level_signatures(L, F(1, 2))
    assert oracle_signature(1, 3, 6) == oracle_signature(1, F(3), 6)
    assert T_MINUS_1.valuation(1) == 1 and T_MINUS_1.evaluate("3/2") == F(1, 2)


def test_oracle_unitary_classification():
    for nu, want in [
        (0, True),
        (F(1, 4), True),
        (F(1, 2), True),
        (1, True),
        (F(5, 4), False),
        (3, False),
    ]:
        assert oracle_unitary(1, F(nu)) == want
    for nu, want in [(0, True), (F(1, 2), False), (2, False)]:
        assert oracle_unitary(-1, F(nu)) == want


# ---------------------------------------------------------------------------
# randomized determinant identity (small local copy; the acceptance suite
# runs the full 200-instance version)

def test_random_planted_divisors_small():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        orders = [rng.randint(0, 2) for _ in range(n)]
        L = _planted(rng, orders, t0=1)
        ls = jantzen_levels(L, 1)
        got = sorted(
            r for r, d, _ in ls for _ in range(d)
        )
        assert got == sorted(orders)
        assert sum(r * d for r, d, _ in ls) == sum(orders)


def _planted(rng, orders, t0):
    n = len(orders)
    d = [
        [
            _pow(T_MINUS_1, orders[i]) * RatFn((rng.choice([1, -1, 2, 3]),))
            if i == j
            else RAT_ZERO
            for j in range(n)
        ]
        for i in range(n)
    ]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = RatFn(tuple(rng.choice([0, 1, -1]) for _ in range(2)))
        for k in range(n):
            d[i][k] = d[i][k] + c * d[j][k]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = RatFn(tuple(rng.choice([0, 1, -1]) for _ in range(2)))
        for k in range(n):
            d[k][i] = d[k][i] + c * d[k][j]
    return d


def _pow(f, k):
    out = RAT_ONE
    for _ in range(k):
        out = out * f
    return out


# ---------------------------------------------------------------------------
# the local-ring elimination: poles, non-integer t0, larger families

def _t_minus(t0):
    """t - t0 as a rational function."""
    t0 = F(t0)
    return RatFn((-t0.numerator, t0.denominator), (t0.denominator,))


def _unimodular(rng, n, t0, steps):
    """A product of elementary operations with entries regular at t0."""
    U = [[RAT_ONE if i == j else RAT_ZERO for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = RatFn((rng.randint(-2, 2), rng.randint(-1, 1)))
        if rng.random() < 0.3:
            den = RatFn((rng.choice([1, 2, 3]), 1))
            if den.evaluate(t0) != 0:
                c = c / den
        for k in range(n):
            U[i][k] = U[i][k] + c * U[j][k]
    return U


def _matmul(A, B):
    n = len(A)
    return [
        [sum((A[i][k] * B[k][j] for k in range(n)), RAT_ZERO) for j in range(n)]
        for i in range(n)
    ]


def _transpose(A):
    return [list(col) for col in zip(*A)]


def _planted_diag(rng, orders, t0):
    signs = [rng.choice([1, -1, 2, -3]) for _ in orders]
    n = len(orders)
    D = [[RAT_ZERO] * n for _ in range(n)]
    for i, (r, c) in enumerate(zip(orders, signs)):
        f = _pow(_t_minus(t0), abs(r))
        D[i][i] = RatFn((c,)) * f if r >= 0 else RatFn((c,)) / f
    return D, signs


@pytest.mark.parametrize("t0", [F(1, 2), F(-2, 3)])
def test_planted_poles_at_rational_point(t0):
    rng = random.Random(str(t0))
    for _ in range(12):
        n = rng.randint(1, 5)
        orders = [rng.randint(-2, 3) for _ in range(n)]
        D, _ = _planted_diag(rng, orders, t0)
        L = _matmul(
            _matmul(_unimodular(rng, n, t0, 2 * n), D),
            _unimodular(rng, n, t0, 2 * n),
        )
        ls = jantzen_levels(L, t0)
        assert sorted(r for r, d, _ in ls for _ in range(d)) == sorted(orders)
        assert sum(r * d for r, d, _ in ls) == sum(orders)


@pytest.mark.parametrize("t0", [F(1, 2), F(-2, 3), 2])
def test_planted_symmetric_signatures(t0):
    rng = random.Random("sym %s" % t0)
    for _ in range(12):
        n = rng.randint(1, 5)
        orders = [rng.randint(-1, 3) for _ in range(n)]
        D, signs = _planted_diag(rng, orders, t0)
        U = _unimodular(rng, n, t0, 2 * n)
        L = _matmul(_matmul(_transpose(U), D), U)
        want = {}
        for r, c in zip(orders, signs):
            want[r] = want.get(r, WElem(0, 0)) + (W_ONE if c > 0 else W_S)
        assert level_signatures(L, t0) == sorted(want.items())


def test_singular_symmetric_family_is_degenerate():
    pole = RAT_ONE / _t_minus(F(1, 2))
    with pytest.raises(DegenerateResidual):
        level_signatures([[pole, pole], [pole, pole]], F(1, 2))
    # rank two of three, with units and a pole: the first pivots exist
    a, b = T_MINUS_1, RatFn((2,)) / RatFn((3, 1))
    rows = [[RAT_ONE, a, b], [a, a * a + pole, a * b], [b, a * b, b * b]]
    with pytest.raises(DegenerateResidual):
        level_signatures(rows, 1)
    with pytest.raises(SingularFamily):
        jantzen_levels(rows, 1)


def test_empty_family_has_no_levels():
    # sl2_ktypes(-1, 0) is empty, so the odd family at cutoff 0 is 0 x 0
    L = sl2_intertwining(-1, 0)
    assert L == []
    assert jantzen_levels(L, 1) == []
    assert level_signatures(L, 1) == []


def test_banded_family_n14_degree_two():
    # L = A D B, A (B) unit lower (upper) triangular with two bands of
    # linear entries, D planted with quadratic entries
    rng = random.Random(14)
    n, t0 = 14, F(-2, 3)
    orders = [i % 3 for i in range(n)]
    D, _ = _planted_diag(rng, orders, t0)
    A = [[RAT_ONE if i == j else RAT_ZERO for j in range(n)] for i in range(n)]
    B = [[RAT_ONE if i == j else RAT_ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for d in (1, 2):
            if i - d >= 0:
                A[i][i - d] = RatFn((rng.randint(-2, 2), rng.choice((-1, 1))))
                B[i - d][i] = RatFn((rng.randint(-2, 2), rng.choice((-1, 1))))
    L = _matmul(_matmul(A, D), B)
    assert max(len(f.num) for row in L for f in row) >= 3
    ls = jantzen_levels(L, t0)
    assert [(r, d) for r, d, _ in ls] == [(0, 5), (1, 5), (2, 4)]


def test_valuation_and_residual_at_rational_point():
    # 45 (t + 2/3)^2 / (t + 1): order 2 at -2/3, residual 45 / (1/3)
    f = RatFn((5,)) * RatFn((2, 3)) * RatFn((2, 3)) / RatFn((1, 1))
    assert f.valuation(F(-2, 3)) == 2
    assert f.residual(F(-2, 3)) == 135
    assert (RAT_ONE / f).residual(F(-2, 3)) == F(1, 135)
    assert f.evaluate(F(1, 2)) == F(245, 6)
    assert -f == RatFn(tuple(-x for x in f.num), f.den)


def _reference_levels(L, t0):
    """The elimination of jantzen_levels in exact Q(t) arithmetic: pivot on
    minimal valuation, row-major on ties, basis from the column operations
    evaluated at t0."""
    n = len(L)
    a = [list(row) for row in L]
    C = [[RAT_ONE if i == j else RAT_ZERO for j in range(n)] for i in range(n)]
    orders = []
    for k in range(n):
        cells = [(a[i][j].valuation(t0), i, j)
                 for i in range(k, n) for j in range(k, n) if a[i][j]]
        v, pi, pj = min(cells)
        a[k], a[pi] = a[pi], a[k]
        for row in a + C:
            row[k], row[pj] = row[pj], row[k]
        p = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / p
            for j in range(k, n):
                a[i][j] = a[i][j] - f * a[k][j]
        for j in range(k + 1, n):
            f = a[k][j] / p
            for row in C:
                row[j] = row[j] - f * row[k]
        orders.append(v)
    layers = {}
    for k in range(n):
        layers.setdefault(orders[k], []).append(
            tuple(C[i][k].evaluate(t0) for i in range(n)))
    return [(r, len(vs), vs) for r, vs in sorted(layers.items())]


@pytest.mark.parametrize("t0", [F(1, 2), F(-2, 3), 1])
def test_levels_match_reference_elimination(t0):
    rng = random.Random("reference %s" % t0)
    for _ in range(15):
        n = rng.randint(1, 4)
        orders = [rng.randint(-2, 2) for _ in range(n)]
        D, _ = _planted_diag(rng, orders, t0)
        L = _matmul(
            _matmul(_unimodular(rng, n, t0, 2 * n), D),
            _unimodular(rng, n, t0, 2 * n),
        )
        assert jantzen_levels(L, t0) == _reference_levels(L, t0)


# ---------------------------------------------------------------------------
# the determinant order, one connected component of the support at a time

def _det_order(L, t0):
    """ord_{t0} det L as the front half of both eliminations finds it, or
    None for a singular family."""
    local = jantzen._local(L, t0)
    return None if local is None else local[0]


def _dense_det_order(L, t0):
    """Bareiss over Z[t] on the whole of L, first-nonzero pivoting, each row
    scaled by the product of its distinct denominators: the reference for
    the order that _local sums over components."""
    n = len(L)
    if not n:
        return 0
    M, scaling = [], 0
    for row in L:
        P = (1,)
        for d in {f.den for f in row}:
            P = p_mul(P, d)
        scaling += p_ord(P, t0)[0]
        M.append([p_divexact(p_mul(f.num, P), f.den) for f in row])
    prev = (1,)
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return None
        M[k], M[piv] = M[piv], M[k]
        rk, p = M[k], M[k][k]
        for ri in M[k + 1:]:
            c = ri[k]
            for j in range(k + 1, n):
                x = p_add(p_mul(p, ri[j]), p_neg(p_mul(c, rk[j])))
                ri[j] = p_divexact(x, prev) if x else x
        prev = p
    return p_ord(M[-1][-1], t0)[0] - scaling


def _permuted_block_diagonal(rng, parts):
    """The parts placed along the diagonal, then rows and columns permuted
    independently."""
    n = sum(len(B) for B in parts)
    L = [[RAT_ZERO] * n for _ in range(n)]
    at = 0
    for B in parts:
        for i, row in enumerate(B):
            L[at + i][at:at + len(row)] = row
        at += len(B)
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    return [[L[r][c] for c in cols] for r in rows]


@pytest.mark.parametrize("t0", [F(1, 2), F(-2, 3)])
def test_det_order_sums_the_components(t0):
    rng = random.Random("components %s" % t0)
    for _ in range(10):
        parts, planted = [], 0
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, 4)
            orders = [rng.randint(-2, 3) for _ in range(k)]
            D, _ = _planted_diag(rng, orders, t0)
            parts.append(_matmul(
                _matmul(_unimodular(rng, k, t0, 2 * k), D),
                _unimodular(rng, k, t0, 2 * k),
            ))
            planted += sum(orders)
        L = _permuted_block_diagonal(rng, parts)
        want = _dense_det_order(L, t0)
        assert want == sum(_dense_det_order(B, t0) for B in parts) == planted
        assert _det_order(L, t0) == want


def test_support_that_is_not_square_is_singular():
    a, b, z = T_MINUS_1, RatFn((2,)) / RatFn((3, 1)), RAT_ZERO
    # row 1 and column 1 are zero; rows 0 and 1 are supported on column 2
    # alone (and, by symmetry, row 2 on columns 0 and 1)
    zero_row = [[RAT_ONE, z], [z, z]]
    two_on_one = [[z, z, a], [z, z, b], [a, b, z]]
    for L in (zero_row, two_on_one):
        assert _det_order(L, F(1)) is None
        with pytest.raises(SingularFamily):
            jantzen_levels(L, 1)
        with pytest.raises(DegenerateResidual):
            level_signatures(L, 1)


@pytest.mark.parametrize("cutoff", range(6, 15))
def test_intertwining_order_counts_ktypes_above_the_wall(cutoff):
    # c_n vanishes to order one at nu = k exactly when |n| > k
    for parity, walls in ((1, range(1, cutoff, 2)), (-1, range(2, cutoff, 2))):
        L = sl2_intertwining(parity, cutoff)
        kt = sl2_ktypes(parity, cutoff)
        for k in walls:
            assert _det_order(L, F(k)) == sum(1 for n in kt if abs(n) > k)


# ---------------------------------------------------------------------------
# the Bareiss order against the dense reference, and the work it skips

def _random_entry(rng, t0, dens):
    """Zero, or a few-term numerator times (t - t0)^e over a denominator
    drawn from dens, some of which have poles at t0."""
    if rng.random() < 0.25:
        return RAT_ZERO
    num = RatFn(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3))))
    return (num or RAT_ONE) * _pow(_t_minus(t0), rng.randint(0, 2)) / rng.choice(dens)


def _random_family(rng, n, t0):
    """An n x n family whose rows mix repeated and distinct denominators;
    about one in four has a row that is a multiple of another, so det L = 0."""
    u = _t_minus(t0)
    dens = [RAT_ONE, RAT_ONE, u, u * u, RatFn((3, 1)), RatFn((1, 2)), RatFn((-1, 0, 2))]
    L = [[_random_entry(rng, t0, dens) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.25:
        i, j = rng.sample(range(n), 2)
        c = _random_entry(rng, t0, dens) or RAT_ONE
        L[i] = [c * f for f in L[j]]
    return L


@pytest.mark.parametrize("t0", [F(0), F(2), F(1, 2), F(-2, 3)])
def test_bareiss_order_matches_the_dense_reference(t0):
    rng = random.Random("bareiss %s" % t0)
    seen = set()
    for _ in range(120):
        n = rng.randint(1, 5)
        L = _random_family(rng, n, t0)
        want = _dense_det_order(L, t0)
        assert jantzen._bareiss_order(L, t0) == want, (L, t0)
        seen.add("singular" if want is None else "pole" if want < 0 else
                 "zero" if want > 0 else "unit")
        if n == 1 and L[0][0] and L[0][0].valuation(t0) < 0:
            seen.add("1x1 pole")
    assert seen == {"singular", "pole", "zero", "unit", "1x1 pole"}


def _horner_shift(p, t0):
    """b^deg p(t0 + U/b) in U, by Horner over Fractions in V = U/b."""
    q = []
    for c in reversed(p):
        q = [t0 * x + y for x, y in zip(q + [0], [0] + q)]
        q[0] += c
    deg, b = max(len(p) - 1, 0), t0.denominator
    out = [x * b ** (deg - k) for k, x in enumerate(q)]
    assert all(x.denominator == 1 for x in map(F, out))
    return tuple(int(x) for x in out)


def test_p_shift_matches_horner():
    rng = random.Random("p_shift")
    polys = [(), (7,), (-3,), (0, 1), (2, -1, 3)] + [
        tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 5))) + (rng.choice((-2, 1, 3)),)
        for _ in range(20)
    ]
    for t0 in (F(0), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 7)):
        for p in polys:
            got = p_shift(p, t0)
            assert got == _horner_shift(p, t0), (p, t0)
            # a constant, and any p at t0 = 0 where U = t, come back as they are
            if len(p) < 2 or t0 == 0:
                assert got is p


def _record(monkeypatch, name):
    """Wrap jantzen.<name> to record the arguments of each call."""
    fn, calls = getattr(jantzen, name), []
    monkeypatch.setattr(jantzen, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_bareiss_divides_only_by_the_previous_pivot(monkeypatch):
    # with every denominator 1, the scaling leaves each row as it is, and
    # an exact division by the previous pivot happens only from step 1 on:
    # at most (n - 1 - k)^2 divisions at step k >= 1, none by 1
    rng = random.Random("bareiss divisions")
    for n in (2, 3, 4, 5, 6):
        L = [[RatFn((rng.randint(-4, 4), rng.choice((-2, -1, 1, 3))))
              for _ in range(n)] for _ in range(n)]
        want = _dense_det_order(L, F(1))
        divs = _record(monkeypatch, "p_divexact")
        assert jantzen._bareiss_order(L, F(1)) == want
        assert all(d != (1,) for _, d in divs)
        bound = sum((n - 1 - k) ** 2 for k in range(1, n))
        assert (0 < len(divs) <= bound) if n > 2 else not divs
        monkeypatch.undo()


def test_one_by_one_components_multiply_and_divide_nothing(monkeypatch):
    # the intertwining diagonal is thirteen 1 x 1 components, each order
    # read off its entry's numerator and denominator
    L = sl2_intertwining(1, 12)
    want = jantzen_levels(L, 5)
    pole = [[RAT_ONE / _t_minus(F(1, 2)) / RatFn((3, 1))]]
    muls, divs = _record(monkeypatch, "p_mul"), _record(monkeypatch, "p_divexact")
    assert jantzen_levels(L, 5) == want
    assert jantzen._bareiss_order(pole, F(1, 2)) == -1
    assert not muls and not divs


# ---------------------------------------------------------------------------
# the eliminations at per-component precision against the global-precision
# ones they replaced
#
# The references below expand every entry modulo U^N with the one global
# N = D - (n-1) m + 1, as jantzen_levels and level_signatures once did.
# Each component c of the support now keeps only N_c = D - sum n_c' v_c'
# + v_c + 1; the levels, the bases in their order, the signatures and the
# errors must not change.

def _norm(x):
    """A Fraction with denominator 1 as an int, which is cheaper to use."""
    return x.numerator if x.denominator == 1 else x


def _ref_inverse(c, prec):
    inv = [_norm(F(1, c[0]))]
    for r in range(1, prec):
        acc = sum(c[s] * inv[r - s] for s in range(1, min(r, len(c) - 1) + 1))
        inv.append(_norm(-acc * inv[0]))
    return inv


def _ref_sub_mul(x, y, q, W):
    out = list(x) if x is not None else [0] * W
    for s, c in enumerate(y):
        if c:
            for r, d in enumerate(q[: W - s]):
                if d:
                    out[s + r] -= c * d
    return out if any(out) else None


def _ref_expand(L, t0, D):
    n = len(L)
    shifted = {}
    for i, row in enumerate(L):
        for j, f in enumerate(row):
            if f:
                pn, pd = p_shift(f.num, t0), p_shift(f.den, t0)
                shifted[i, j] = (pn, jantzen._lead(pn), pd, jantzen._lead(pd),
                                 len(f.den) - len(f.num))
    m = min([0] + [vn - vd for _, vn, _, vd, _ in shifted.values()])
    W = D - n * m + 1
    a = [[None] * n for _ in range(n)]
    for (i, j), (pn, vn, pd, vd, dd) in shifted.items():
        lo = vn - vd - m
        if lo < W:
            scale = -_norm(F(t0.denominator) ** dd)
            q = [_norm(scale * x) for x in _ref_inverse(pd[vd:], W - lo)]
            a[i][j] = _ref_sub_mul(None, ([0] * lo + list(pn[vn:]))[:W], q, W)
    return m, W, a


def _ref_pivot(a, k):
    n = len(a)
    cells = [(jantzen._lead(a[i][j]), i, j)
             for i in range(k, n) for j in range(k, n) if a[i][j]]
    return min(cells, default=None)


def _ref_quotients(a, k, W):
    p = a[k][k]
    lo = jantzen._lead(p)
    q = [-x for x in _ref_inverse(p[lo:], W - lo)]
    return [
        None if j <= k or x is None else _ref_sub_mul(None, x[lo:], q, W - lo)
        for j, x in enumerate(a[k])
    ]


def _ref_levels(L, t0):
    t0 = F(t0)
    n = len(L)
    D = _det_order(L, t0)
    if D is None:
        raise SingularFamily("determinant vanishes identically")
    m, W, a = _ref_expand(L, t0, D)
    C = [[int(i == j) for j in range(n)] for i in range(n)]
    orders = [0] * n
    for k in range(n):
        piv = _ref_pivot(a, k)
        if piv is None:
            raise SingularFamily("family is singular at every order")
        v, pi, pj = piv
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
        if pj != k:
            for row in a + C:
                row[k], row[pj] = row[pj], row[k]
        q = _ref_quotients(a, k, W)
        for j in range(k + 1, n):
            if q[j] is None:
                continue
            f = q[j][0]
            if f:
                for row in C:
                    row[j] -= f * row[k]
            for i in range(k + 1, n):
                if a[i][k] is not None:
                    a[i][j] = _ref_sub_mul(a[i][j], a[i][k], q[j], W)
        orders[k] = v + m
    if D != sum(orders):
        raise SingularFamily(
            "valuation bookkeeping failed: ord det = %d, sum of layer "
            "orders = %d" % (D, sum(orders))
        )
    layers = {}
    for k in range(n):
        vec = tuple(F(C[i][k]) for i in range(n))
        layers.setdefault(orders[k], []).append(vec)
    return [(r, len(vs), vs) for r, vs in sorted(layers.items())]


def _ref_signatures(L, t0):
    t0 = F(t0)
    n = len(L)
    if any(L[i][j] != L[j][i] for i in range(n) for j in range(i)):
        raise ValueError("level_signatures needs a symmetric family")
    degenerate = DegenerateResidual("form is identically zero on a Jantzen layer")
    D = _det_order(L, t0)
    if D is None:
        raise degenerate
    m, W, a = _ref_expand(L, t0, D)
    levels = {}
    for k in range(n):
        piv = _ref_pivot(a, k)
        if piv is None:
            raise degenerate
        v, i0, j0 = piv
        pi = next(
            (i for i in range(k, n)
             if a[i][i] is not None and jantzen._lead(a[i][i]) == v),
            None,
        )
        if pi is None:
            for c in range(k, n):
                if a[j0][c] is not None:
                    a[i0][c] = _ref_sub_mul(a[i0][c], a[j0][c], [-1], W)
            for r in range(k, n):
                if a[r][j0] is not None:
                    a[r][i0] = _ref_sub_mul(a[r][i0], a[r][j0], [-1], W)
            pi = i0
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            for row in a:
                row[k], row[pi] = row[pi], row[k]
        q = _ref_quotients(a, k, W)
        for i in range(k + 1, n):
            if a[i][k] is not None:
                for j in range(i, n):
                    if q[j] is not None:
                        a[i][j] = a[j][i] = _ref_sub_mul(a[i][j], a[i][k], q[j], W)
        w = W_ONE if a[k][k][v] > 0 else W_S
        levels[v + m] = levels.get(v + m, WElem(0, 0)) + w
    total = sum(r * w.forget() for r, w in levels.items())
    if D != total:
        raise DegenerateResidual(
            "valuation bookkeeping failed: ord det = %d, sum of layer "
            "orders = %d" % (D, total)
        )
    return sorted(levels.items())


def _outcome(fn, L, t0):
    """fn(L, t0), or the type and text of what it raised."""
    try:
        return fn(L, t0)
    except (SigzeroError, ValueError) as e:
        return type(e), str(e)


def _assert_same_as_reference(L, t0):
    assert _outcome(jantzen_levels, L, t0) == _outcome(_ref_levels, L, t0)
    assert _outcome(level_signatures, L, t0) == _outcome(_ref_signatures, L, t0)


def _planted_part(rng, k, t0, lo, hi):
    orders = [rng.randint(lo, hi) for _ in range(k)]
    D, _ = _planted_diag(rng, orders, t0)
    return _matmul(_matmul(_unimodular(rng, k, t0, 2 * k), D),
                   _unimodular(rng, k, t0, 2 * k))


@pytest.mark.parametrize("t0", [F(1, 2), F(-2, 3)])
def test_block_diagonal_levels_match_global_precision(t0):
    rng = random.Random("per-component %s" % t0)
    for _ in range(40):
        parts = [_planted_part(rng, rng.randint(1, 3), t0, -2, 3)
                 for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.15:
            # a rank-one part: the family is singular
            f = _t_minus(t0)
            parts.append([[f, f], [f, f]])
        _assert_same_as_reference(_permuted_block_diagonal(rng, parts), t0)


def _mirrored_pair(rng, k, t0):
    """[[0, B], [B^T, 0]] for a planted k x k block B: two components of the
    support, each the transpose of the other."""
    B = _planted_part(rng, k, t0, -1, 3)
    z = [RAT_ZERO] * k
    return ([z + list(row) for row in _transpose(B)]
            + [list(row) + z for row in B])


def _symmetric_part(rng, k, t0):
    """U^T D U with a nonzero diagonal at generic t."""
    orders = [rng.randint(-1, 3) for _ in range(k)]
    D, _ = _planted_diag(rng, orders, t0)
    U = _unimodular(rng, k, t0, 2 * k)
    return _matmul(_matmul(_transpose(U), D), U)


@pytest.mark.parametrize("t0", [F(1, 2), F(-2, 3), 2])
def test_symmetric_levels_and_signatures_match_global_precision(t0):
    rng = random.Random("mirrored %s" % t0)
    for _ in range(30):
        parts = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                parts.append(_mirrored_pair(rng, rng.randint(1, 2), t0))
            else:
                parts.append(_symmetric_part(rng, rng.randint(1, 3), t0))
        n = sum(len(B) for B in parts)
        L = [[RAT_ZERO] * n for _ in range(n)]
        at = 0
        for B in parts:
            for i, row in enumerate(B):
                L[at + i][at:at + len(row)] = row
            at += len(B)
        # one permutation of rows and columns keeps the family symmetric
        perm = rng.sample(range(n), n)
        _assert_same_as_reference([[L[r][c] for c in perm] for r in perm], t0)


def _walls(parity, cutoff):
    """The levels nu at which some c_n of the ladder vanishes."""
    return range(1 if parity == 1 else 2, cutoff, 2)


@pytest.mark.parametrize("parity", [1, -1])
def test_intertwining_levels_match_global_precision(parity):
    for cutoff in range(2, 15):
        L = sl2_intertwining(parity, cutoff)
        for k in _walls(parity, cutoff):
            _assert_same_as_reference(L, F(k))


@pytest.mark.parametrize("parity", [1, -1])
def test_both_eliminations_give_the_intertwining_levels(parity):
    # the row-column and the congruence elimination: the same (r, dim)
    for cutoff in range(2, 15):
        L = sl2_intertwining(parity, cutoff)
        for k in _walls(parity, cutoff):
            for t0 in (F(k), F(-k)):
                levels = [(r, d) for r, d, _ in jantzen_levels(L, t0)]
                assert levels == [(r, w.forget())
                                  for r, w in level_signatures(L, t0)]


@pytest.mark.parametrize("parity", [1, -1])
def test_intertwining_entries_keep_at_most_two_coefficients(parity):
    # each c_n is a 1x1 component of order 0 or +-1 at a wall, so the
    # expansion needs at most the coefficients at U^0 and U^1 (at U^-1 and
    # U^0 below a pole)
    L = sl2_intertwining(parity, 14)
    for k in _walls(parity, 14):
        for t0 in (F(k), F(-k)):
            _, _, a = jantzen._local(L, t0)
            assert all(len(x) <= 2 for row in a for x in row if x is not None)


def _closed_form_c(parity, n):
    """c_{2m} = prod_{j<m} (2j+1-nu)/(2j+1+nu) and c_{2m+1} = prod_{1<=j<=m}
    (2j-nu)/(2j+nu), as in the module docstring."""
    n = abs(n)
    ints = range(1, n, 2) if parity == 1 else range(2, n, 2)
    out = RAT_ONE
    for a in ints:
        out = out * RatFn((a, -1), (a, 1))
    return out


def test_c_function_matches_the_closed_form():
    for parity in (1, -1):
        for n in sl2_ktypes(parity, 20):
            assert sl2_c_function(parity, n) == _closed_form_c(parity, n)


def test_intertwining_and_oracles_climb_one_ladder(monkeypatch):
    # one RatFn product per weight above the lowest: at most cutoff // 2
    calls = []
    mul = RatFn.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(RatFn, "__mul__", counted)
    for parity in (1, -1):
        for cutoff in range(0, 21):
            for run in (
                lambda: sl2_intertwining(parity, cutoff),
                lambda: oracle_signature(parity, F(3), cutoff),
                lambda: oracle_unitary(parity, F(5, 2), cutoff),
            ):
                calls.clear()
                run()
                assert len(calls) <= cutoff // 2


# ---------------------------------------------------------------------------
# the integer elimination against the Fraction references, on the shapes the
# benchmark's jantzen-families workload runs

def _banded(rng, n, t0, symmetric):
    """A D B with D planted (orders alternating 0, 1, leading coefficients
    in {1, -1, 2, -3}), A unit lower and B unit upper bidiagonal with linear
    entries, and A = B^T when symmetric."""
    D, _ = _planted_diag(rng, [i % 2 for i in range(n)], t0)
    B = [[RAT_ONE if i == j else RAT_ZERO for j in range(n)] for i in range(n)]
    A = [[RAT_ONE if i == j else RAT_ZERO for j in range(n)] for i in range(n)]
    for i in range(1, n):
        B[i - 1][i] = RatFn((rng.randint(-2, 2), rng.choice((-1, 1))))
        A[i][i - 1] = RatFn((rng.randint(-2, 2), rng.choice((-1, 1))))
    if symmetric:
        A = _transpose(B)
    return _matmul(_matmul(A, D), B)


_WORKLOAD_POINTS = [F(0), F(1), F(-1), F(2), F(1, 2), F(-2, 3)]


@pytest.mark.parametrize("t0", _WORKLOAD_POINTS)
def test_banded_levels_match_the_fraction_references(t0):
    rng = random.Random("banded %s" % t0)
    for n in [6, 6, 7, 7, 8, 8, 9, 10]:
        L = _banded(rng, n, t0, symmetric=False)
        got = jantzen_levels(L, t0)
        assert got == _ref_levels(L, t0) == _reference_levels(L, t0)
        assert sorted(r for r, d, _ in got for _ in range(d)) == sorted(
            i % 2 for i in range(n))


@pytest.mark.parametrize("t0", _WORKLOAD_POINTS)
def test_symmetric_banded_levels_and_signatures_match_the_fraction_references(t0):
    rng = random.Random("symmetric banded %s" % t0)
    for n in [6, 6, 7, 7, 8, 8, 9, 10]:
        L = _banded(rng, n, t0, symmetric=True)
        assert L == _transpose(L)
        _assert_same_as_reference(L, t0)


# ---------------------------------------------------------------------------
# growth of the integers the eliminations hold
#
# Each row (each symmetric block) is kept as an integer multiple of its
# Schur complement and divided by its content after every update.  On the
# two families below, the Fraction elimination this one replaced held
# numerators and denominators of at most 610 bits (the banded n = 14
# family, jantzen_levels) and 175 bits (the symmetric 12 x 12, both
# eliminations).  An integer row carries its common denominator times its
# numerators, so the bound is three times that; the integers reach 1,689
# and 452 bits.  Without the content division they reach 52,210 and 9,444
# bits, and grow with every step.

def _banded_n14():
    """The family of test_banded_family_n14_degree_two."""
    rng = random.Random(14)
    n, t0 = 14, F(-2, 3)
    D, _ = _planted_diag(rng, [i % 3 for i in range(n)], t0)
    A = [[RAT_ONE if i == j else RAT_ZERO for j in range(n)] for i in range(n)]
    B = [[RAT_ONE if i == j else RAT_ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for d in (1, 2):
            if i - d >= 0:
                A[i][i - d] = RatFn((rng.randint(-2, 2), rng.choice((-1, 1))))
                B[i - d][i] = RatFn((rng.randint(-2, 2), rng.choice((-1, 1))))
    return _matmul(_matmul(A, D), B)


def _symmetric_n12():
    """U^T D U, 12 x 12 at t0 = -2/3: planted orders 0..2 and twelve
    elementary operations, some with denominators."""
    rng = random.Random("growth 0")
    t0 = F(-2, 3)
    D, _ = _planted_diag(rng, [i % 3 for i in range(12)], t0)
    U = _unimodular(rng, 12, t0, 12)
    return _matmul(_matmul(_transpose(U), D), U)


def _bounded_sub_mul(monkeypatch, bits):
    """Wrap jantzen._sub_mul to fail as soon as an integer it takes or
    returns has more than the given number of bits."""
    sub_mul = jantzen._sub_mul

    def checked(*args):
        out = sub_mul(*args)
        for x in args[:-1] + (out,):
            for c in [x] if isinstance(x, int) else x or ():
                assert abs(c).bit_length() <= bits, abs(c).bit_length()
        return out

    monkeypatch.setattr(jantzen, "_sub_mul", checked)


def test_banded_n14_elimination_integers_stay_bounded(monkeypatch):
    L = _banded_n14()
    _bounded_sub_mul(monkeypatch, 3 * 610)
    ls = jantzen_levels(L, F(-2, 3))
    assert [(r, d) for r, d, _ in ls] == [(0, 5), (1, 5), (2, 4)]


def test_symmetric_n12_elimination_integers_stay_bounded(monkeypatch):
    L = _symmetric_n12()
    t0 = F(-2, 3)
    assert any(f.den != (1,) for row in L for f in row)
    _bounded_sub_mul(monkeypatch, 3 * 175)
    ls = jantzen_levels(L, t0)
    sig = level_signatures(L, t0)
    assert [(r, d) for r, d, _ in ls] == [(r, w.forget()) for r, w in sig]
    assert sum(r * d for r, d, _ in ls) == 12 // 3 * (0 + 1 + 2)
