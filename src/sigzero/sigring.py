"""Exact arithmetic in the signature ring $\\mathbb{W} = \\mathbb{Z}[s]/(s^2-1)$
and in $\\mathbb{W}$-valued Laurent polynomials in $q^{1/2}$.

A nondegenerate Hermitian form with $p$ positive and $q$ negative eigenvalues
is recorded as $p + qs \\in \\mathbb{W}$; the generator $s$ stands for a
negative line, and tensoring forms gives the multiplication rule
$(p+qs)(p'+q's) = (pp'+qq') + (pq'+qp')s$ with $s^2 = 1$.  The forgetful map
$\\mathrm{for}(p+qs) = p+q$ remembers only dimensions and is a ring
homomorphism onto $\\mathbb{Z}$.  The identity $(s-1)s = -(s-1) = 1-s$ drives
every signature-change computation downstream.

Signature multiplicity polynomials live in
$\\mathbb{W}[q^{1/2}, q^{-1/2}]$.  Exponents are stored as integer counts of
$q^{1/2}$ units, so the monomial $q^k$ has stored exponent $2k$.  Genuine half
powers are legal in the container (they arise transiently) but are rejected by
the substitution $q := s$ and by the twist $P \\mapsto s^{\\delta/2} P(sq)$,
which only make sense for integral $q$-powers.

All coefficients are arbitrary-precision integers; nothing here floats.
Values are immutable and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .errors import HalfPowerPresent, OddOrientationDifference

__all__ = [
    "WElem",
    "WPoly",
    "W_ZERO",
    "W_ONE",
    "W_S",
    "s_power",
]


@dataclass(frozen=True)
class WElem:
    """Element $p + qs$ of $\\mathbb{W} = \\mathbb{Z}[s]/(s^2-1)$."""

    p: int
    q: int

    def __add__(self, other: "WElem") -> "WElem":
        return WElem(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "WElem") -> "WElem":
        return WElem(self.p - other.p, self.q - other.q)

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


def s_power(k: int) -> WElem:
    """$s^k$, which only depends on $k \\bmod 2$."""
    return W_ONE if k % 2 == 0 else W_S


_Items = Iterable[Tuple[int, WElem]]


@dataclass(frozen=True)
class WPoly:
    """Laurent polynomial over $\\mathbb{W}$ in $q^{1/2}$.

    coeffs is a sorted tuple of (exponent in half units, nonzero WElem); the
    normalization (no zero coefficients, strictly increasing exponents) is
    restored by every constructor and operation.
    """

    coeffs: Tuple[Tuple[int, WElem], ...] = ()

    @staticmethod
    def from_items(items: _Items) -> "WPoly":
        acc: Dict[int, WElem] = {}
        for e, c in items:
            acc[e] = acc.get(e, W_ZERO) + c
        return WPoly(tuple(sorted((e, c) for e, c in acc.items() if c)))

    @staticmethod
    def from_int_coeffs(coeffs: Sequence[int]) -> "WPoly":
        """Plain integer polynomial sum coeffs[k] q^k embedded via p-parts."""
        return WPoly.from_items((2 * k, WElem(c, 0)) for k, c in enumerate(coeffs))

    @staticmethod
    def constant(c: WElem) -> "WPoly":
        return WPoly.from_items([(0, c)])

    def items(self) -> Tuple[Tuple[int, WElem], ...]:
        return self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "WPoly") -> "WPoly":
        return WPoly.from_items(list(self.coeffs) + list(other.coeffs))

    def __sub__(self, other: "WPoly") -> "WPoly":
        return self + (-other)

    def __neg__(self) -> "WPoly":
        return WPoly(tuple((e, -c) for e, c in self.coeffs))

    def __mul__(self, other: Union["WPoly", WElem, int]) -> "WPoly":
        if isinstance(other, int):
            other = WElem(other, 0)
        if isinstance(other, WElem):
            return WPoly.from_items((e, c * other) for e, c in self.coeffs)
        return WPoly.from_items(
            (e1 + e2, c1 * c2) for e1, c1 in self.coeffs for e2, c2 in other.coeffs
        )

    def __rmul__(self, other: Union[WElem, int]) -> "WPoly":
        return self * other

    def eval_one(self) -> WElem:
        """Value at $q^{1/2} = 1$: the sum of all coefficients."""
        total = W_ZERO
        for _, c in self.coeffs:
            total = total + c
        return total

    def eval_s(self) -> WElem:
        """Substitute $q := s$; requires integral $q$-powers."""
        total = W_ZERO
        for e, c in self.coeffs:
            if e % 2 != 0:
                raise HalfPowerPresent(
                    "cannot substitute q := s with q^{%d/2} present" % e
                )
            total = total + c * s_power(e // 2)
        return total

    def twist_sq(self, delta: int) -> "WPoly":
        """$s^{\\delta/2} P(sq)$: coefficient of $q^k$ gains $s^{k+\\delta/2}$."""
        if delta % 2 != 0:
            raise OddOrientationDifference(
                "orientation numbers differ by %d" % delta
            )
        out = []
        for e, c in self.coeffs:
            if e % 2 != 0:
                raise HalfPowerPresent(
                    "cannot substitute q := sq with q^{%d/2} present" % e
                )
            out.append((e, c * s_power(e // 2 + delta // 2)))
        return WPoly(tuple(out))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e, c in self.coeffs:
            if e == 0:
                terms.append("(%s)" % c)
            elif e % 2 == 0:
                terms.append("(%s)q^%d" % (c, e // 2))
            else:
                terms.append("(%s)q^{%d/2}" % (c, e))
        return " + ".join(terms)

    def to_json(self) -> List[List[int]]:
        return [[e, c.p, c.q] for e, c in self.coeffs]

    @staticmethod
    def from_json(data: Iterable[Sequence[int]]) -> "WPoly":
        return WPoly.from_items((int(e), WElem(int(p), int(q))) for e, p, q in data)

