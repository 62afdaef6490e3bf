"""Unit and property tests for the signature ring W = Z[s]/(s^2-1) and the
polynomial ring W[q]."""

import pytest
from hypothesis import example, given, settings, strategies as st

from sigzero.errors import OddOrientationDifference
from sigzero.intpoly import p_add, p_addmul, p_mul, p_trim
from sigzero.sigring import (
    WElem,
    WPoly,
    W_ONE,
    W_S,
    W_ZERO,
)

welems = st.builds(WElem, st.integers(-9, 9), st.integers(-9, 9))


def small_wpolys(max_len):
    """a(q) + b(q)s with at most max_len small coefficients in a and in b."""
    coeffs = st.lists(st.integers(-9, 9), max_size=max_len).map(p_trim)
    return st.builds(WPoly, coeffs, coeffs)


wpolys = small_wpolys(7)
int_wpolys = small_wpolys(4)


def test_s_squared_is_one():
    assert W_S * W_S == W_ONE


def test_mul_table():
    # (p + q s)(p' + q' s) = (pp' + qq') + (pq' + qp') s
    assert WElem(1, 2) * WElem(3, 4) == WElem(3 + 8, 4 + 6)
    assert W_S * W_S == W_ONE
    assert 3 * WElem(1, 1) == WElem(3, 3)


def test_monomial_and_exponent():
    assert WElem(3, 0).is_monomial() and WElem(3, 0).s_exponent() == 0
    assert WElem(0, -2).is_monomial() and WElem(0, -2).s_exponent() == 1
    assert not WElem(1, 1).is_monomial()
    # zero is a degenerate monomial but carries no s-exponent
    assert W_ZERO.is_monomial()
    with pytest.raises(ValueError):
        W_ZERO.s_exponent()


def test_welem_json_round_trip():
    w = WElem(-3, 5)
    assert WElem.from_json(w.to_json()) == w


# untrimmed coefficient lists: zeros anywhere, trailing ones included
int_lists = st.lists(st.integers(-9, 9), max_size=7)


@given(int_lists, int_lists, int_lists)
@example([], [], [])
@example([3, -1], [], [2])
@example([3, -1], [2], [])
@example([0, 0, 0], [0, 0], [5, 0])
@example([1, 2, 3, 4, 5, 6, 7], [1, -1], [2])
@example([4], [0, 2, 0, -3], [1, 1, 0])
@example([], [-1, 0, 2], [-3, 4])
def test_p_addmul_accumulates_the_product_in_place(acc, a, b):
    # acc longer and shorter than the product, empty, zero and negative
    # inputs: the list itself holds acc + a b, and a and b are unchanged
    a0, b0 = list(a), list(b)
    want = p_add(acc, p_mul(a, b))
    p_addmul(acc, a, b)
    assert p_trim(acc) == want
    assert (a, b) == (a0, b0)


@given(welems, welems, welems)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(welems, welems)
def test_forget_is_a_ring_map(a, b):
    assert (a + b).forget() == a.forget() + b.forget()
    assert (a * b).forget() == a.forget() * b.forget()


def test_from_int_coeffs_evaluations():
    p = WPoly.from_int_coeffs([1, 2])  # 1 + 2q
    assert p.eval_one() == WElem(3, 0)


def test_twist_sq_examples():
    q = WPoly.from_int_coeffs([0, 1])
    # s^{delta/2} P(sq) with delta = 2: coefficient of q gains s^{1+1} = 1
    assert q.twist_sq(2) == q
    assert q.twist_sq(-2) == q
    assert q.twist_sq(0) == WPoly((), (0, 1))
    const = WPoly.from_int_coeffs([1])
    assert const.twist_sq(2) == WPoly((), (1,))


def test_twist_sq_rejects_odd_delta():
    with pytest.raises(OddOrientationDifference):
        WPoly.from_int_coeffs([1]).twist_sq(1)


@given(int_wpolys, st.integers(-3, 3).map(lambda k: 2 * k))
def test_twist_sq_is_an_involution_up_to_sign_convention(p, delta):
    # s^{delta/2} is its own inverse in W, so twisting twice by delta
    # composes to conjugation by s^{delta}, which is trivial
    assert p.twist_sq(delta).twist_sq(delta) == p


@given(wpolys, wpolys)
def test_poly_eval_one_is_a_ring_map(p, r):
    assert (p * r).eval_one() == p.eval_one() * r.eval_one()
    assert (p + r).eval_one() == p.eval_one() + r.eval_one()


@given(wpolys, wpolys, wpolys)
@settings(max_examples=60)
def test_wpoly_ring_axioms(p, r, t):
    assert (p + r) + t == p + (r + t)
    assert p * r == r * p
    assert (p * r) * t == p * (r * t)
    assert p * (r + t) == p * r + p * t


@given(int_wpolys, int_wpolys, st.integers(-2, 2).map(lambda k: 2 * k))
def test_twist_sq_is_multiplicative_in_the_twist(p, r, delta):
    # twist(P R, d) = twist(P, d) twist(R, 0) times s^{-d/2} bookkeeping:
    # the clean identity is twist(PR, a+b) = twist(P, a) twist(R, b)
    a, b = delta, -delta
    assert (p * r).twist_sq(a + b) == p.twist_sq(a) * r.twist_sq(b)


def test_items_format_and_trimmed_equality():
    # exponents count half units of q; zero coefficients are skipped
    assert WPoly.from_int_coeffs([1, 2]).items() == (
        (0, WElem(1, 0)),
        (2, WElem(2, 0)),
    )
    assert WPoly((0, 3), (1,)).items() == ((0, W_S), (2, WElem(3, 0)))
    assert WPoly.from_int_coeffs([1, 0, 0]) == WPoly.from_int_coeffs([1])
    assert WPoly.from_int_coeffs([0, 0]) == WPoly() and not WPoly()
    p = WPoly((1, 2), (0, 5))
    assert p + (-p) == WPoly()
    assert (p + WPoly((0, -2), (0, -5))) == WPoly.from_int_coeffs([1])
    assert p * 0 == WPoly() and p * W_ZERO == WPoly()


def test_str_renderings():
    assert str(WElem(1, 0)) == "1"
    assert str(WElem(0, 1)) == "s"
    assert str(W_ZERO) == "0"
    assert "q" in str(WPoly.from_int_coeffs([0, 1]))
