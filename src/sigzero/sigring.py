"""Exact arithmetic in the signature ring $\\mathbb{W} = \\mathbb{Z}[s]/(s^2-1)$
and in the polynomial ring $\\mathbb{W}[q]$.

A nondegenerate Hermitian form with $p$ positive and $q$ negative eigenvalues
is recorded as $p + qs \\in \\mathbb{W}$; the generator $s$ stands for a
negative line, and tensoring forms gives the multiplication rule
$(p+qs)(p'+q's) = (pp'+qq') + (pq'+qp')s$ with $s^2 = 1$.  The forgetful map
$\\mathrm{for}(p+qs) = p+q$ remembers only dimensions and is a ring
homomorphism onto $\\mathbb{Z}$.  The identity $(s-1)s = -(s-1) = 1-s$ drives
every signature-change computation downstream.

Signature multiplicity polynomials live in $\\mathbb{W}[q]$: every one the
engine handles is $Q^c(q) = s^{\\delta/2} Q(sq)$ or its unitriangular
inverse, an ordinary polynomial in $q$ with no half or negative powers.  A
``WPoly`` stores it as $a(q) + b(q)s$ with $a, b$ integer polynomials, and
all of its arithmetic is the ``intpoly`` kernel's.

All coefficients are arbitrary-precision integers; nothing here floats.
Values are immutable and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from .errors import OddOrientationDifference
from .intpoly import IntPoly, p_add, p_mul, p_neg, p_trim

__all__ = [
    "WElem",
    "WPoly",
    "W_ZERO",
    "W_ONE",
    "W_S",
]


@dataclass(frozen=True)
class WElem:
    """Element $p + qs$ of $\\mathbb{W} = \\mathbb{Z}[s]/(s^2-1)$."""

    p: int
    q: int

    def __add__(self, other: "WElem") -> "WElem":
        return WElem(self.p + other.p, self.q + other.q)

    def __neg__(self) -> "WElem":
        return WElem(-self.p, -self.q)

    def __mul__(self, other: Union["WElem", int]) -> "WElem":
        if isinstance(other, int):
            return WElem(self.p * other, self.q * other)
        return WElem(
            self.p * other.p + self.q * other.q,
            self.p * other.q + self.q * other.p,
        )

    def __rmul__(self, other: int) -> "WElem":
        return WElem(self.p * other, self.q * other)

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    def forget(self) -> int:
        """The dimension map $\\mathrm{for}(p+qs) = p+q$."""
        return self.p + self.q

    def is_monomial(self) -> bool:
        """True when one of the two components vanishes (then the element is
        an integer multiple of $s^0$ or of $s^1$)."""
        return self.p == 0 or self.q == 0

    def s_exponent(self) -> int:
        """For a nonzero monomial, 0 if supported on 1 and 1 if on s."""
        if not self.is_monomial() or not self:
            raise ValueError("s_exponent defined only for nonzero monomials")
        return 0 if self.q == 0 else 1

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.p:
            parts.append(str(self.p))
        if self.q:
            if self.q == 1:
                parts.append("s")
            elif self.q == -1:
                parts.append("-s")
            else:
                parts.append("%ds" % self.q)
        return "+".join(parts).replace("+-", "-")

    def to_json(self) -> List[int]:
        return [self.p, self.q]

    @staticmethod
    def from_json(data: Sequence[int]) -> "WElem":
        a, b = data
        return WElem(int(a), int(b))


W_ZERO = WElem(0, 0)
W_ONE = WElem(1, 0)
W_S = WElem(0, 1)


@dataclass(frozen=True)
class WPoly:
    """Polynomial $a(q) + b(q)s$ in $q$ over $\\mathbb{W}$.

    a and b are trimmed ``intpoly`` coefficient tuples, so the coefficient of
    $q^k$ is $a_k + b_k s$ and structural equality is equality of values.
    """

    a: IntPoly = ()
    b: IntPoly = ()

    @staticmethod
    def from_int_coeffs(coeffs: Sequence[int]) -> "WPoly":
        """Plain integer polynomial sum coeffs[k] q^k embedded via p-parts."""
        return WPoly(p_trim(coeffs))

    def items(self) -> Tuple[Tuple[int, WElem], ...]:
        """(exponent in half units of q, nonzero WElem), exponents ascending:
        the monomial $q^k$ has exponent $2k$."""
        a, b = _pad(self.a, self.b)
        return tuple(
            (2 * k, WElem(x, y)) for k, (x, y) in enumerate(zip(a, b)) if x or y
        )

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __add__(self, other: "WPoly") -> "WPoly":
        return WPoly(p_add(self.a, other.a), p_add(self.b, other.b))

    def __neg__(self) -> "WPoly":
        return WPoly(p_neg(self.a), p_neg(self.b))

    def __mul__(self, other: Union["WPoly", WElem, int]) -> "WPoly":
        if isinstance(other, int):
            other = WElem(other, 0)
        if isinstance(other, WElem):
            other = WPoly(p_trim((other.p,)), p_trim((other.q,)))
        # (a + bs)(c + ds) = (ac + bd) + (ad + bc)s
        a, b, c, d = self.a, self.b, other.a, other.b
        return WPoly(
            p_add(p_mul(a, c), p_mul(b, d)), p_add(p_mul(a, d), p_mul(b, c))
        )

    def __rmul__(self, other: Union[WElem, int]) -> "WPoly":
        return self * other

    def eval_one(self) -> WElem:
        """Value at $q = 1$: the sum of all coefficients."""
        return WElem(sum(self.a), sum(self.b))

    def twist_sq(self, delta: int) -> "WPoly":
        """$s^{\\delta/2} P(sq)$: coefficient of $q^k$ gains $s^{k+\\delta/2}$,
        so $a_k$ and $b_k$ swap where $k + \\delta/2$ is odd."""
        if delta % 2 != 0:
            raise OddOrientationDifference("orientation numbers differ by %d" % delta)
        a, b = _pad(self.a, self.b)
        odd = slice((delta // 2 + 1) % 2, None, 2)
        a[odd], b[odd] = b[odd], a[odd]
        return WPoly(p_trim(a), p_trim(b))

    def __str__(self) -> str:
        terms = [
            "(%s)" % c if e == 0 else "(%s)q^%d" % (c, e // 2)
            for e, c in self.items()
        ]
        return " + ".join(terms) or "0"


def _pad(a: IntPoly, b: IntPoly) -> Tuple[List[int], List[int]]:
    """a and b as lists of one common length."""
    n = max(len(a), len(b))
    return list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
