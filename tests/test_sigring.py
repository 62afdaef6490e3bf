"""Unit and property tests for the signature ring W = Z[s]/(s^2-1) and its
half-integer Laurent polynomials."""

import pytest
from hypothesis import given, settings, strategies as st

from sigzero.errors import HalfPowerPresent, OddOrientationDifference
from sigzero.sigring import (
    WElem,
    WPoly,
    W_ONE,
    W_S,
    W_ZERO,
    s_power,
)

welems = st.builds(WElem, st.integers(-9, 9), st.integers(-9, 9))


def wpoly_items(min_size=0, max_size=5):
    return st.lists(
        st.tuples(st.integers(-6, 6), welems),
        min_size=min_size,
        max_size=max_size,
    )


wpolys = wpoly_items().map(WPoly.from_items)
# even exp_half only, so q-powers are integral
int_wpolys = (
    st.lists(st.tuples(st.integers(-3, 3).map(lambda k: 2 * k), welems), max_size=5)
    .map(WPoly.from_items)
)


def test_s_squared_is_one():
    assert W_S * W_S == W_ONE
    assert s_power(2) == W_ONE
    assert s_power(-1) == W_S
    assert s_power(-4) == W_ONE


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
    assert p.eval_s() == WElem(1, 2)  # q -> s


def test_eval_s_even_odd_split():
    p = WPoly.from_int_coeffs([3, 5, 7])  # 3 + 5q + 7q^2
    assert p.eval_s() == WElem(3 + 7, 5)


def test_eval_s_rejects_half_powers():
    p = WPoly.from_items([(1, W_ONE)])  # q^{1/2}
    with pytest.raises(HalfPowerPresent):
        p.eval_s()
    # eval at q=1 is insensitive to the half power
    assert p.eval_one() == W_ONE


def test_twist_sq_examples():
    q = WPoly.from_int_coeffs([0, 1])
    # s^{delta/2} P(sq) with delta = 2: coefficient of q gains s^{1+1} = 1
    assert q.twist_sq(2) == q
    assert q.twist_sq(-2) == q
    assert q.twist_sq(0) == WPoly.from_items([(2, W_S)])
    const = WPoly.from_int_coeffs([1])
    assert const.twist_sq(2) == WPoly.constant(W_S)


def test_twist_sq_rejects_odd_delta():
    with pytest.raises(OddOrientationDifference):
        WPoly.from_int_coeffs([1]).twist_sq(1)


def test_twist_sq_rejects_half_powers():
    with pytest.raises(HalfPowerPresent):
        WPoly.from_items([(1, W_ONE)]).twist_sq(2)


@given(int_wpolys, st.integers(-3, 3).map(lambda k: 2 * k))
def test_twist_sq_is_an_involution_up_to_sign_convention(p, delta):
    # s^{delta/2} is its own inverse in W, so twisting twice by delta
    # composes to conjugation by s^{delta}, which is trivial
    assert p.twist_sq(delta).twist_sq(delta) == p


@given(wpolys, wpolys)
def test_poly_eval_one_is_a_ring_map(p, r):
    assert (p * r).eval_one() == p.eval_one() * r.eval_one()
    assert (p + r).eval_one() == p.eval_one() + r.eval_one()


@given(int_wpolys, int_wpolys)
def test_poly_eval_s_is_a_ring_map(p, r):
    assert (p * r).eval_s() == p.eval_s() * r.eval_s()
    assert (p + r).eval_s() == p.eval_s() + r.eval_s()


@given(wpolys, wpolys, wpolys)
@settings(max_examples=60)
def test_wpoly_ring_axioms(p, r, t):
    assert (p + r) + t == p + (r + t)
    assert p * r == r * p
    assert (p * r) * t == p * (r * t)
    assert p * (r + t) == p * r + p * t


@given(wpolys)
def test_wpoly_json_round_trip(p):
    assert WPoly.from_json(p.to_json()) == p


@given(int_wpolys, int_wpolys, st.integers(-2, 2).map(lambda k: 2 * k))
def test_twist_sq_is_multiplicative_in_the_twist(p, r, delta):
    # twist(P R, d) = twist(P, d) twist(R, 0) times s^{-d/2} bookkeeping:
    # the clean identity is twist(PR, a+b) = twist(P, a) twist(R, b)
    a, b = delta, -delta
    assert (p * r).twist_sq(a + b) == p.twist_sq(a) * r.twist_sq(b)


def test_str_renderings():
    assert str(WElem(1, 0)) == "1"
    assert str(WElem(0, 1)) == "s"
    assert str(W_ZERO) == "0"
    assert "q" in str(WPoly.from_int_coeffs([0, 1]))
