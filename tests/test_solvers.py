"""The sparse unitriangular solvers against dense references.

``invert_multiplicity``, ``signature_P`` and ``irreducible_in_standards``
solve on packed integers (values at q = 2^bits, or at q = 1) and push only
the nonzero entries of each column, and ``irreducible_in_standards`` solves
one column.  The references below loop over every position of the length
order in polynomial arithmetic, as the solvers once did.  Both are checked
on synthetic blocks shaped like the benchmark's, on a block file whose
coefficients need slots wider than 100 bits, and on the built-in SL(2,R)
and SL(2,C) blocks up to 12, and so are the single columns of $(Q^c)^{-1}$
that a provider solves on demand.  Packing and unpacking round-trip on
balanced digits.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from sigzero.blocks import (
    Block,
    BlockElement,
    builtin_block,
    invert_multiplicity,
    parse_block,
    serialize_block,
    sl2r_ds_param,
)
from sigzero.intpoly import p_add, p_mul, p_neg, p_pack, p_slot_bits, p_trim, p_unpack
from sigzero.sigengine import (
    _qc_cols,
    _solve_column,
    irreducible_in_standards,
    signature_P,
    signature_Q,
)
from sigzero.sigring import WElem, WPoly

F = Fraction


def _order(b):
    return [e.id for e in sorted(b.elements, key=lambda e: (e.length, e.id))]


def _sign(b, r, c):
    lengths = {e.id: e.length for e in b.elements}
    return -1 if (lengths[c] - lengths[r]) % 2 else 1


def dense_invert_multiplicity(b):
    """P with (-1)^(l(c) - l(r)) P[r, c] = (Q^-1)[r, c], every position."""
    order = _order(b)
    n = len(order)
    X = {}
    for j in range(n):
        X[(order[j], order[j])] = (1,)
        for i in range(j - 1, -1, -1):
            acc = ()
            for k in range(i + 1, j + 1):
                q = b.q_poly(order[i], order[k])
                x = X.get((order[k], order[j]), ())
                if q and x:
                    acc = p_add(acc, p_mul(q, x))
            if acc:
                X[(order[i], order[j])] = p_neg(acc)
    return {(r, c): tuple(_sign(b, r, c) * x for x in v) for (r, c), v in X.items()}


def dense_invert_unitriangular(b, mat):
    """Inverse of a W[q] matrix unitriangular in the length order, every
    position."""
    order = _order(b)
    n = len(order)
    inv = {}
    one = WPoly.from_int_coeffs((1,))
    for j in range(n):
        inv[(order[j], order[j])] = one
        for i in range(j - 1, -1, -1):
            acc = WPoly()
            for k in range(i + 1, j + 1):
                a = mat.get((order[i], order[k]))
                x = inv.get((order[k], order[j]))
                if a is not None and x is not None and a and x:
                    acc = acc + a * x
            if acc:
                inv[(order[i], order[j])] = WPoly(p_neg(acc.a), p_neg(acc.b))
    return inv


def synthetic_block(seed, n):
    """n elements with lengths 0..7 spread evenly, even orientation numbers,
    and Q entries at the degree bound (l(c) - l(r) - 1) // 2 on three in ten
    of the pairs the length order allows.  Ids are shuffled, so the length
    order is not the order of the ids."""
    rng = random.Random("solvers/%d/%d" % (seed, n))
    lengths = [8 * i // n for i in range(n)]
    ids = rng.sample(range(n), n)
    elements = tuple(
        BlockElement(ids[i], 0, lengths[i], 2 * rng.randint(0, 3),
                     sl2r_ds_param(1, i + 1), frozenset())
        for i in range(n)
    )
    pairs = [(r, c) for c in range(n) for r in range(n) if lengths[r] < lengths[c]]
    Q = {
        (ids[r], ids[c]): tuple(rng.randint(1, 2)
                                for _ in range((lengths[c] - lengths[r] - 1) // 2 + 1))
        for r, c in rng.sample(pairs, 3 * len(pairs) // 10)
    }
    return Block("synth", (F(seed),), elements, Q)


def builtin_blocks():
    for j in range(25):
        yield from builtin_block("sl2r", (F(j, 2),))
    for a in range(13):
        for c in range(a + 1):
            yield from builtin_block("sl2c", (a, c))


def check_solvers(b):
    assert invert_multiplicity(b) == dense_invert_multiplicity(b)
    inv = dense_invert_unitriangular(b, signature_Q(b))
    # signature_P raises unless its twist route agrees entry by entry
    assert signature_P(b) == {(r, c): v * _sign(b, r, c) for (r, c), v in inv.items()}
    for psi in b.elements:
        want = {}
        for e in b.elements:
            v = inv.get((e.id, psi.id), WPoly())
            w = WElem(sum(v.a), sum(v.b))
            if w:
                want[e.param] = w
        got = irreducible_in_standards(b, psi.id)
        assert got.terms == want


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [24, 32, 40])
def test_sparse_solvers_match_dense_on_synthetic_blocks(n, seed):
    b = synthetic_block(seed, n)
    assert len(b.Q) > n
    check_solvers(b)


def test_sparse_solvers_match_dense_on_builtin_blocks():
    blocks = list(builtin_blocks())
    assert sum(len(b.elements) > 1 for b in blocks) > 20
    for b in blocks:
        check_solvers(b)


def qc_columns(b):
    """The columns of the full (Q^c)^-1, read from signature_P, as
    {column: {row: entry}}."""
    cols = {e.id: {} for e in b.elements}
    for (r, c), v in signature_P(b).items():
        cols[c][r] = v * _sign(b, r, c)
    return cols


def test_on_demand_columns_match_the_full_inverse():
    blocks = list(builtin_blocks()) + [synthetic_block(s, n) for s in (1, 2, 3)
                                       for n in (24, 32, 40)]
    for b in blocks:
        want = qc_columns(b)
        order, bits = _order(b), p_slot_bits(_order(b), b.Q)
        packed, at_one = _qc_cols(b, bits), _qc_cols(b, 0)
        for e in b.elements:
            got = _solve_column(order, packed, e.id)
            assert {r: WPoly(p_unpack(x_a, bits), p_unpack(x_b, bits))
                    for r, (x_a, x_b) in got.items()} == want[e.id]
            # the column at q = 1, which irreducible_in_standards solves
            values = {r: WElem(sum(v.a), sum(v.b)) for r, v in want[e.id].items()}
            assert {r: WElem(*w) for r, w in _solve_column(order, at_one, e.id).items()} \
                == {r: w for r, w in values.items() if w}


def _digits(bits):
    """Lists of balanced digits at the given slot width, the extreme digits
    +-(2^(bits-1) - 1) and -2^(bits-1) drawn often."""
    half = 1 << (bits - 1)
    digit = st.one_of(st.integers(-half, half - 1), st.sampled_from([half - 1, 1 - half, -half]))
    return st.lists(digit, max_size=9).map(lambda c: (bits, c))


@given(st.integers(1, 140).flatmap(_digits))
@example((1, [-1, 0, -1]))
@example((2, [1, -1, -2, 0, 0]))
@example((64, [2 ** 63 - 1, -(2 ** 63 - 1), 0, -(2 ** 63)]))
def test_pack_unpack_round_trip(case):
    # negative digits, zero digits anywhere, trailing zeros and the
    # largest digits of the slot: unpacking returns the trimmed digits
    bits, coeffs = case
    assert p_unpack(p_pack(coeffs, bits), bits) == p_trim(coeffs)
    assert p_pack(coeffs, 0) == sum(coeffs)


def test_solvers_on_a_block_file_with_30_digit_coefficients():
    # Q coefficients near 10^30, read from JSON integers: slots wider
    # than 100 bits, against the dense references
    rng = random.Random("solvers/wide")
    obj = json.loads(serialize_block(synthetic_block(4, 24)))
    for entry in (e for e in obj["Q"] if e["row"] != e["col"]):
        entry["coeffs"] = [rng.randint(10 ** 29, 10 ** 30) for _ in entry["coeffs"]]
    b = parse_block(json.dumps(obj))
    assert max(max(v) for v in b.Q.values()) > 10 ** 29
    assert p_slot_bits(_order(b), b.Q) > 100
    check_solvers(b)
