"""Based root data with Cartan involutions.

A root datum is the quadruple (X*, roots, X_*, coroots), with X* and X_*
written in dual bases so that their perfect pairing is the dot product; a
Cartan involution enters as an order-2 lattice map theta on X* permuting
the roots.  Roots fall into three classes:

    real       theta(alpha) = -alpha
    imaginary  theta(alpha) =  alpha
    complex    otherwise (these come in 4-tuples {a, theta a, -a, -theta a})

Two integer invariants of a parameter with infinitesimal character
$d\\gamma = d\\lambda + \\nu$ are computed here.  The length counts pairs
$(\\alpha, -\\theta\\alpha)$ of complex roots lying in the positive system
$R^+(d\\gamma)$, plus the contribution of the real integral subsystem,
which is supported only when that subsystem is a product of $A_1$'s, where
it is the number of factors.  The orientation number counts nonintegral
roots that are positively oriented for $\\gamma$: complex pairs with both
pairings positive, and real roots whose pairing has integer part of the
parity selected by the $\\mathbb{Z}/2$ grading on real coroots.  Orientation
numbers are locally constant in $\\nu$ and jump by 1 across single
reorienting hyperplanes.

Both take $\\gamma$ and the Cartan's RootClass, whose -theta permutation of
the roots is fixed when the Cartan is classified; neither applies theta
itself.  All comparisons are exact: ``RootDatum.pairings`` gives each
$\\langle\\gamma, \\alpha^\\vee\\rangle$ as an integer over one denominator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Sequence, Tuple

from .errors import InvalidInvolution, UnsupportedRealSystem

__all__ = [
    "RootDatum",
    "Involution",
    "RootClass",
    "classify_roots",
    "length",
    "orientation_number",
    "dot",
]

Vector = Tuple[Fraction, ...]


_FRAC_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_frac(text) -> Fraction:
    """Parse an exact rational from 'p', 'p/q', or an int; floats and
    booleans rejected."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    m = _FRAC_RE.match(text.strip()) if isinstance(text, str) else None
    if m is None:
        raise ValueError("not an exact rational: %r" % (text,))
    num, den = m.groups()
    return Fraction(int(num), int(den or 1))


def _vec(v: Sequence) -> Vector:
    """v as a tuple of Fractions read by ``parse_frac``; a tuple of
    Fractions is returned as it is, so exact values are never wrapped again."""
    for x in v:
        if type(x) is not Fraction:
            return tuple(parse_frac(x) for x in v)
    return v if type(v) is tuple else tuple(v)


def _dot_parts(u: Sequence, v: Sequence) -> Tuple[int, int]:
    """The dot product of two vectors of ints or Fractions as an integer
    numerator over a positive integer denominator, not necessarily in
    lowest terms."""
    num, den = 0, 1
    for a, b in zip(u, v):
        d = a.denominator * b.denominator
        num, den = num * d + a.numerator * b.numerator * den, den * d
    return num, den


def dot(u: Sequence, v: Sequence) -> Fraction:
    """The dot product of two vectors of ints or Fractions, summed in
    integers (``_dot_parts``) and divided once: a Fraction whenever an entry
    is one (every caller passes those), else an int."""
    num, den = _dot_parts(u, v)
    for x in (*u, *v):
        if type(x) is not int:
            return Fraction(num, den)
    return num


def _norm_sq_parts(v: Sequence) -> Tuple[int, int]:
    """|v|^2 of a vector of ints or Fractions as an integer numerator over a
    positive integer denominator, not necessarily in lowest terms."""
    num, den = 0, 1
    for x in v:
        n, d = x.numerator, x.denominator
        num, den = num * d * d + n * n * den, den * d * d
    return num, den


def _lex_positive(v: Sequence[Fraction]) -> bool:
    for x in v:
        if x != 0:
            return x > 0
    return False


@dataclass(frozen=True)
class RootDatum:
    """Roots in X* and coroots in X_*, both written in dual bases, so that
    the perfect pairing of X* and X_* is the dot product; the rank is an
    int, the number of coordinates of every root and coroot."""

    rank: int
    roots: Tuple[Vector, ...]
    coroots: Tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(_vec(r) for r in self.roots))
        object.__setattr__(self, "coroots", tuple(_vec(c) for c in self.coroots))
        if type(self.rank) is not int:
            raise ValueError("rank must be an int (got %r)" % (self.rank,))
        if any(len(v) != self.rank for v in (*self.roots, *self.coroots)):
            raise ValueError("roots and coroots need %d coordinates each" % self.rank)
        if len(self.roots) != len(self.coroots):
            raise ValueError("roots and coroots must be in bijection")
        for i, (a, av) in enumerate(zip(self.roots, self.coroots)):
            if dot(a, av) != 2:
                raise ValueError("pairing <alpha, alpha^vee> != 2 at index %d" % i)
        for a in self.roots:
            if tuple(-x for x in a) not in self.roots:
                raise ValueError("root set not closed under negation")
        # <x, alpha_i^vee> = sum_j x_j F[i][j] / den with integer F and den > 0
        den = math.lcm(*(x.denominator for c in self.coroots for x in c))
        object.__setattr__(self, "_coroot_den", den)
        object.__setattr__(
            self, "_coroot_num", tuple(tuple(int(x * den) for x in c) for c in self.coroots)
        )

    def pairings(self, v: Sequence) -> Tuple[List[int], int]:
        """<v, alpha_i^vee> for every root i, as integer numerators N_i over
        one common denominator q > 0; v has int or Fraction coordinates."""
        dv = math.lcm(*(x.denominator for x in v))
        ints = [x.numerator * (dv // x.denominator) for x in v]
        nums = [sum(a * b for a, b in zip(ints, f)) for f in self._coroot_num]
        return nums, dv * self._coroot_den


@dataclass(frozen=True)
class Involution:
    """Order-2 lattice map theta on X*, stored as a matrix of rows of ints
    (a bool is not one)."""

    theta: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if any(type(x) is not int for row in self.theta for x in row):
            raise InvalidInvolution("theta entries must be ints (got %r)" % (self.theta,))
        object.__setattr__(self, "theta", tuple(map(tuple, self.theta)))

    def apply(self, v: Sequence) -> Vector:
        return tuple(dot(row, v) for row in self.theta)

    def validate(self, rd: RootDatum) -> None:
        n = rd.rank
        if len(self.theta) != n or any(len(row) != n for row in self.theta):
            raise InvalidInvolution("theta has wrong shape")
        for j in range(n):
            e = tuple(Fraction(1) if i == j else Fraction(0) for i in range(n))
            if self.apply(self.apply(e)) != e:
                raise InvalidInvolution("theta^2 != identity")
        for a in rd.roots:
            if self.apply(a) not in rd.roots:
                raise InvalidInvolution("theta does not permute the roots")


@dataclass(frozen=True)
class RootClass:
    """Per-root classification for one involution theta: tags[i] is real,
    imaginary or complex, and neg_theta[i] is the index of -theta(alpha_i)."""

    tags: Tuple[str, ...]
    neg_theta: Tuple[int, ...]

    def real_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.tags) if t == "real")

    def complex_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.tags) if t == "complex")


def classify_roots(rd: RootDatum, inv: Involution) -> RootClass:
    """Tag every root real / imaginary / complex for the involution and
    record the index of -theta(alpha) for each root alpha."""
    inv.validate(rd)
    tags: List[str] = []
    neg_theta: List[int] = []
    for a in rd.roots:
        ta = inv.apply(a)
        mta = tuple(-x for x in ta)
        if mta == a:
            tags.append("real")
        elif ta == a:
            tags.append("imaginary")
        else:
            tags.append("complex")
        neg_theta.append(rd.roots.index(mta))
    return RootClass(tuple(tags), tuple(neg_theta))


def length(rd: RootDatum, rc: RootClass, gamma: Sequence) -> int:
    """Length of a parameter at infinitesimal character gamma, for the
    Cartan whose root classification is rc.

    Counts complex pairs (alpha, -theta alpha) inside R^+(gamma) and adds
    the number of A_1 factors of the real integral system, its positive
    integral real roots.  R^+(gamma) holds the roots with positive pairing;
    a singular root is positive when its coordinates are lexicographically
    positive.  A real integral system that is not a product of A_1's raises
    UnsupportedRealSystem.
    """
    nums, q = rd.pairings(gamma)
    pos = [
        i for i, n in enumerate(nums)
        if n > 0 or (n == 0 and _lex_positive(rd.roots[i]))
    ]
    pos_set = set(pos)
    n_pairs = len({frozenset((i, rc.neg_theta[i])) for i in pos
                   if rc.tags[i] == "complex" and rc.neg_theta[i] in pos_set})

    real_int_pos = [i for i in pos if rc.tags[i] == "real" and nums[i] % q == 0]
    for a in real_int_pos:
        for b in real_int_pos:
            if a != b and dot(rd.roots[a], rd.coroots[b]) != 0:
                raise UnsupportedRealSystem(
                    "real integral system is not a product of A1's")
    return n_pairs + len(real_int_pos)


def orientation_number(
    rd: RootDatum,
    rc: RootClass,
    grading: Mapping[int, int],
    gamma: Sequence,
) -> int:
    """Orientation number of the parameter at infinitesimal character
    gamma = dlambda + nu, for the Cartan whose root classification is rc.

    Rule (a): complex pairs {alpha, -theta alpha}, nonintegral, with both
    pairings strictly positive.  Rule (b): real roots beta with
    <gamma, beta^vee> positive and nonintegral whose integer part is even
    when the grading on beta is +1 and odd when it is -1.  With the
    pairings N_i / q, the sign is that of N_i, integrality is N_i % q == 0
    and the integer part is N_i // q.
    """
    nums, q = rd.pairings(gamma)
    count = len({frozenset((i, rc.neg_theta[i])) for i in rc.complex_indices()
                 if nums[i] > 0 and nums[i] % q and nums[rc.neg_theta[i]] > 0})
    for i in rc.real_indices():
        n = nums[i]
        if n <= 0 or n % q == 0:
            continue
        floor_parity = (n // q) % 2
        g = grading.get(i, 1)
        if (g == 1 and floor_parity == 0) or (g == -1 and floor_parity == 1):
            count += 1

    return count
