"""Integer polynomials, the one exact polynomial kernel: tuples of ints,
coefficients ascending in t, trailing zeros trimmed (zero is ``()``).

Block Q-matrices and both components of a ``sigring.WPoly`` in $W[q]$ use
the ring operations; the unitriangular solvers run on values at $q =
2^{bits}$ (Kronecker substitution, ``p_pack``) read back as balanced digits
(``p_unpack``) at the slot width ``p_slot_bits`` proves exact.  ``jantzen``
also uses ``p_addmul``, exact division, a primitive gcd, and the order,
value and Taylor expansion at a rational point $t_0 = a/b$ ($b > 0$,
$\\gcd(a, b) = 1$), all in integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Mapping, Sequence, Tuple

IntPoly = Tuple[int, ...]


def p_trim(c: Sequence[int]) -> IntPoly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def p_add(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    n = max(len(a), len(b))
    return p_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def p_neg(a: Sequence[int]) -> IntPoly:
    return tuple(-x for x in a)


def p_mul(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return p_trim(out)


def p_addmul(acc: List[int], a: Sequence[int], b: Sequence[int]) -> None:
    """acc += a * b in place, acc a list of coefficients that is extended
    as needed and left untrimmed; zero coefficients of a are skipped."""
    if not a or not b:
        return
    n = len(a) + len(b) - 1
    if len(acc) < n:
        acc.extend([0] * (n - len(acc)))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                acc[j] += x * y


def p_pack(a: Sequence[int], bits: int) -> int:
    """a(2^bits), one bits-wide slot per coefficient; a(1) at bits = 0."""
    v = 0
    for c in reversed(a):
        v = (v << bits) + c
    return v


def p_unpack(v: int, bits: int) -> IntPoly:
    """The trimmed a with a(2^bits) = v and balanced digits in [-2^(bits-1),
    2^(bits-1)), ``p_pack``'s inverse there; every v has one for bits >= 2."""
    out, half, mask = [], 1 << (bits - 1), (1 << bits) - 1
    while v:
        out.append(((v + half) & mask) - half)
        v = (v - out[-1]) >> bits
    return tuple(out)


def p_slot_bits(order: Sequence[int], entries: Mapping[Tuple[int, int], IntPoly]) -> int:
    """A slot width at which ``p_unpack`` reads each entry of $X = N^{-1}$, N
    unitriangular in ``order``, over Z[q] or W[q], from ``entries``, the
    nonzero entries off its implied unit diagonal, as in ``Block.Q``
    ($\\|a + bs\\| = \\|a\\|_1 + \\|b\\|_1$).  Proof: $U_r = 1 + \\sum_k
    \\|N_{rk}\\|_1 U_k$ from the end of the order back bounds $\\|X_{rc}\\|_1$,
    as $X_{cc} = 1$, $X_{rc} = -\\sum_k N_{rk} X_{kc}$ and the L1 norm is
    submultiplicative, so each coefficient is below $2^{bits-1} > \\max U$ in
    size.  $Q^c = s^h Q(sq)$ has Q's norms, $Q_{rk}(1)$ (Q is nonnegative)."""
    pos = {x: i for i, x in enumerate(order)}
    U = dict.fromkeys(order, 1)
    # by column, last first: U[k] is complete before it is read
    for (r, k), a in sorted(entries.items(), key=lambda e: pos[e[0][1]], reverse=True):
        U[r] += sum(map(abs, a)) * U[k]
    return max(U.values(), default=1).bit_length() + 1


def p_divexact(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    """a / b where b divides a in Z[t]; ArithmeticError otherwise."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * max(0, len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + db], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[k] = c
        for i, y in enumerate(b):
            r[i + k] -= c * y
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return p_trim(q)


def _primitive(a: Sequence[int]) -> IntPoly:
    g = gcd(*a)
    return tuple(x // g for x in a)


def p_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd over Q[t] of two nonzero polynomials as the primitive integer
    polynomial with positive leading coefficient (primitive pseudo-remainder
    sequence)."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [x * b[-1] for x in r]
            for i, y in enumerate(b):
                r[i + shift] -= c * y
            r = list(p_trim(r))
        if not r:
            return b if b[-1] > 0 else p_neg(b)
        a, b = b, _primitive(r)
    return (1,)


def p_ord(p: IntPoly, t0: Fraction) -> Tuple[int, IntPoly]:
    """(v, q) with p = (b t - a)^v q and q(t0) != 0, for nonzero p, by
    integer synthetic division by b t - a."""
    a, b = t0.numerator, t0.denominator
    v = 0
    while len(p) > 1:
        # (b t - a) q = p read top down: q_{i-1} = (p_i + a q_i) / b
        q = [0] * (len(p) - 1)
        carry = 0
        for i in range(len(p) - 1, 0, -1):
            q[i - 1], rem = divmod(p[i] + carry, b)
            if rem:
                return v, p
            carry = a * q[i - 1]
        if p[0] + carry:
            return v, p
        p, v = tuple(q), v + 1
    return v, p


def p_at(p: IntPoly, t0: Fraction) -> Fraction:
    """p(t0) as b^deg p(a/b) / b^deg."""
    a, b = t0.numerator, t0.denominator
    d = max(len(p) - 1, 0)
    return Fraction(sum(c * a ** i * b ** (d - i) for i, c in enumerate(p)), b ** d)


def p_shift(p: IntPoly, t0: Fraction) -> IntPoly:
    """Coefficients in U of b^deg p(t0 + U/b), an integer polynomial: the
    Taylor expansion of p at t0 in U = b t - a, by Horner in a + U; p
    itself for a constant and at t0 = 0, where U = t."""
    if len(p) < 2 or not t0:
        return p
    a, b = t0.numerator, t0.denominator
    out: list = []
    for k, c in enumerate(reversed(p)):
        out = [a * x + y for x, y in zip(out + [0], [0] + out)]
        out[0] += c * b ** k
    return tuple(out)
