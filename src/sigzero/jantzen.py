"""Exact Jantzen filtrations of rational matrix families, and the SL(2,R)
intertwining-operator oracle.

A family $L(t)$ of invertible-for-generic-$t$ matrices over $\\mathbb{Q}(t)$
filters its domain by vanishing order at $t_0$: $E^r$ is spanned by vectors
$v$ admitting a curve $f_v(t)$ with $L(t)f_v(t)$ vanishing to order $\\geq r$.
Elementary divisors over the local ring at $t_0$ compute the layer dimensions
$\\dim E^r/E^{r+1}$, and the valuation identity
$D = ord_{t_0} \\det L = \\sum_r r \\cdot \\dim E^r/E^{r+1}$ certifies the
computation.  For symmetric families the same elimination done by congruence
preserves the residual forms, whose signs give the layer signatures.

No rational-function arithmetic runs in the filtration.  $\\det L$ is
exact and computed apart from the elimination: Bareiss over $\\mathbb{Z}[t]$,
with first-nonzero pivoting, on each connected component of the support of
$L$ (row $i$ is linked to column $j$ when $L_{ij} \\neq 0$), orders read by
integer synthetic division by $bt - a$ ($t_0 = a/b$) and added up.  Each
row is scaled by the product of its distinct denominators, which takes no
division: an entry's numerator is multiplied by the product of the row's
other denominators, and a row whose denominators are all 1 is used as it
is.  An update $(p\\,r_{ij} - c\\,r_{kj}) / p_{prev}$ is accumulated in one
list of coefficients, skipped where both products vanish, and divided
exactly by the previous pivot unless that pivot is 1.  A $1 \\times 1$
component has order $ord_{t_0} num - ord_{t_0} den$, read off its entry.
A component with more rows than columns, or fewer, or
$\\det L \\equiv 0$ means a singular family.  Each entry of a
component $c$ is then expanded as $U^e$ times a unit power series in
$U = bt - a$ modulo $U^{N_c}$,
$N_c = D - \\sum_{c'} n_{c'} v_{c'} + v_c + 1$, with $v_c$ the least entry
valuation in $c$ and $n_c$ its number of rows: the elementary divisors of
$c$ are $\\geq v_c$ and all of them sum to $D$, so each of $c$ is $< N_c$.
``_local`` makes $D$ and the expansion in one pass over the components,
once per elimination; the elimination itself checks its orders against $D$.
The elimination pivots on minimal valuation over the whole family,
row-major on ties, on integers alone: each component is expanded times the
least positive integer that clears its denominators.  The Schur complement
never leaves the pivot's component; a quotient by a pivot of valuation $v$
has absolute precision $N_c - v \\geq 1$ and the update keeps $N_c$, so
every entry that can win or tie a pivot is read exactly and an entry that
truncates to zero is never one.  A row $i$ meeting the pivot becomes
$\\lambda a_i - a_{ik} \\lambda a_k / a_{kk}$, $\\lambda > 0$ the least
integer making the quotient integral, divided by its content: a unit
multiple of the Schur-complement row, so valuations, the pivot order and
the quotients $a_{kj} / a_{kk}$ (whose values at $U^0$ build the adapted
basis) do not change.  The symmetric elimination updates the block its
pivot's row reaches with one $\\lambda$ and one content, a congruence up
to a positive factor, which keeps residual signs, as does $b > 0$ in
$U = b(t - t_0)$.  Orders, signs and bases are those of the elimination
over $\\mathbb{Q}(t)$, and each row (block) is the least integer multiple of
its rational value, so the integers grow as those rationals do, not by
doubling at every step.  A strictly off-diagonal minimum $(i, j)$ adds row
and column $j$ to row and column $i$, joining a component with its
transpose, which has the same $v_c$ and $n_c$, so the same $N_c$.

The oracle diagonalizes the long intertwining operator of SL(2,R) principal
series in the K-type basis.  With $K$-weights $n$ of one parity and level
coordinate $\\nu = \\langle\\nu, \\alpha^\\vee\\rangle$, the ladder recurrence
forces $c_{n+2}/c_n = (n+1-\\nu)/(n+1+\\nu)$, giving the closed forms

    even:  c_{2m} = prod_{j=0}^{m-1} (2j+1-nu)/(2j+1+nu)
    odd:   c_{2m+1} = prod_{j=1}^{m} (2j-nu)/(2j+nu)

normalized to $+1$ on each lowest K-type ($c_{-n} = c_n$) and built up the
ladder, one product per step.  The raw operator is antisymmetric across the
two odd half-ladders ($a_{-n} = -a_n$), which is the twist applied when
reading off invariant-form positivity.  The full derivation from the
rank-one integral lives in docs/intertwining.md; the closed form is gated by
the determinant identity above and by matching its zero locus against the
reducibility hyperplanes.  ``oracle_signature`` reads each $c_n$'s order $r$
and the sign of its residual $g(\\nu)$ off the rational function itself, the
sign $(-1)^r \\operatorname{sign} g(\\nu)$ just below $\\nu$, so it runs none
of the elimination it checks.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Dict, List, Optional, Tuple, Union

from .errors import DegenerateResidual, SchemaError, SingularFamily
from .intpoly import (
    IntPoly,
    p_add,
    p_addmul,
    p_at,
    p_divexact,
    p_gcd,
    p_mul,
    p_neg,
    p_ord,
    p_shift,
    p_trim,
)
from .params import decode_json
from .rootdata import parse_frac
from .sigring import WElem, W_ONE, W_S

__all__ = [
    "RatFn",
    "parse_ratmatrix",
    "ratmatrix_to_json_obj",
    "jantzen_levels",
    "level_signatures",
    "sl2_intertwining",
    "sl2_ktypes",
    "sl2_c_function",
    "oracle_signature",
    "oracle_unitary",
]


@dataclass(frozen=True)
class RatFn:
    """Rational function num/den, integer coefficients ascending in t,
    gcd-reduced, jointly primitive, with positive leading denominator
    coefficient."""

    num: Tuple[int, ...]
    den: Tuple[int, ...] = (1,)

    def __post_init__(self):
        for x in (*self.num, *self.den):
            if type(x) is not int:
                raise TypeError("RatFn coefficients must be ints (got %r)" % (x,))
        num, den = p_trim(self.num), p_trim(self.den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            num, den = (), (1,)
        else:
            if len(num) > 1 and len(den) > 1:
                g = p_gcd(num, den)
                if len(g) > 1:
                    num, den = p_divexact(num, g), p_divexact(den, g)
            c = gcd(*num, *den)
            if den[-1] < 0:
                c = -c
            if c != 1:
                num = tuple(x // c for x in num)
                den = tuple(x // c for x in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: "RatFn") -> "RatFn":
        n = p_add(p_mul(self.num, other.den), p_mul(other.num, self.den))
        return RatFn(n, p_mul(self.den, other.den))

    def __sub__(self, other: "RatFn") -> "RatFn":
        return self + (-other)

    def __neg__(self) -> "RatFn":
        # a sign flip keeps the canonical form
        out = object.__new__(RatFn)
        object.__setattr__(out, "num", p_neg(self.num))
        object.__setattr__(out, "den", self.den)
        return out

    def __mul__(self, other: "RatFn") -> "RatFn":
        return RatFn(p_mul(self.num, other.num), p_mul(self.den, other.den))

    def __truediv__(self, other: "RatFn") -> "RatFn":
        if not other:
            raise ZeroDivisionError("division by the zero function")
        return RatFn(p_mul(self.num, other.den), p_mul(self.den, other.num))

    def valuation(self, t0: Fraction) -> Optional[int]:
        """Order of vanishing at t0 (negative at a pole, None for 0)."""
        if not self:
            return None
        t0 = parse_frac(t0)
        return p_ord(self.num, t0)[0] - p_ord(self.den, t0)[0]

    def residual(self, t0: Fraction) -> Fraction:
        """Value of (t-t0)^{-val} f at t0; nonzero for nonzero f."""
        if not self:
            raise ZeroDivisionError("zero function has no residual")
        t0 = parse_frac(t0)
        vn, n = p_ord(self.num, t0)
        vd, d = p_ord(self.den, t0)
        # num/den = (b t - a)^(vn - vd) n/d and b t - a = b (t - t0)
        return Fraction(t0.denominator) ** (vn - vd) * p_at(n, t0) / p_at(d, t0)

    def evaluate(self, t0: Fraction) -> Fraction:
        t0 = parse_frac(t0)
        dv = p_at(self.den, t0)
        if dv == 0:
            raise ZeroDivisionError("pole at t0")
        return p_at(self.num, t0) / dv

    def to_json_obj(self) -> dict:
        return {"num": list(self.num), "den": list(self.den)}


RAT_ZERO = RatFn((), (1,))
RAT_ONE = RatFn((1,), (1,))

RatMatrix = List[List[RatFn]]

_ONE: IntPoly = (1,)


def parse_ratmatrix(data: Union[str, bytes, Sequence]) -> RatMatrix:
    """Square array of {"num": [...], "den": [...]} entries."""
    data = decode_json(data)
    if isinstance(data, Mapping) and "entries" in data:
        data = data["entries"]
    if not isinstance(data, Sequence) or not data:
        raise SchemaError("matrix must be a nonempty square array")
    n = len(data)
    out: RatMatrix = []
    for row in data:
        if not isinstance(row, Sequence) or len(row) != n:
            raise SchemaError("matrix must be square")
        cells = []
        for cell in row:
            # the shape only: RatFn refuses a coefficient that is not an int
            if not (isinstance(cell, Mapping) and isinstance(cell.get("num"), list)
                    and isinstance(cell.get("den", []), list)):
                raise SchemaError('entries must be {"num": [...], "den": [...]}')
            try:
                cells.append(
                    RatFn(tuple(cell["num"]), tuple(cell.get("den", (1,))))
                )
            except (TypeError, ValueError, ZeroDivisionError) as e:
                raise SchemaError("bad entry: %s" % e)
        out.append(cells)
    return out


def ratmatrix_to_json_obj(m: RatMatrix) -> list:
    return [[f.to_json_obj() for f in row] for row in m]


# ---------------------------------------------------------------------------
# filtration over the local ring at t0
#
# In the elimination an entry is the list of its coefficients at U^m ..
# U^(N_c - 1), U = b (t - t0) and N_c the precision of its component, or
# None for zero (to that precision).

def _components(L: RatMatrix) -> List[Tuple[List[int], List[int]]]:
    """(rows, columns) of each connected component of the support of L: row
    i is linked to column j when L_ij != 0.  Components come in the order of
    their least row, and those without a row after them, by column."""
    n = len(L)
    # rows are 0..n-1 and columns n..2n-1, merged by a union-find
    parent = list(range(2 * n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, row in enumerate(L):
        for j, f in enumerate(row):
            if f:
                parent[find(i)] = find(n + j)
    parts: Dict[int, Tuple[List[int], List[int]]] = {}
    for x in range(2 * n):
        parts.setdefault(find(x), ([], []))[x >= n].append(x % n)
    return list(parts.values())


def _bareiss_order(L: RatMatrix, t0: Fraction) -> Optional[int]:
    """ord_{t0} det L, or None when det L vanishes identically, for a
    nonempty L: Bareiss over Z[t], with first-nonzero pivoting, on L with
    each row scaled by the product of its distinct denominators, that is
    each numerator times the product of the row's other ones.  A 1 x 1 L
    is read off its entry."""
    n = len(L)
    if n == 1:
        f = L[0][0]
        return p_ord(f.num, t0)[0] - p_ord(f.den, t0)[0] if f else None
    M = []
    scaling = 0
    for row in L:
        dens = {f.den for f in row} - {_ONE}
        if not dens:
            M.append([f.num for f in row])
            continue
        # num/den times the product of all is num times that of the others
        other = {d: reduce(p_mul, dens - {d}, _ONE) for d in dens}
        other[_ONE] = reduce(p_mul, dens)
        scaling += p_ord(other[_ONE], t0)[0]
        M.append([p_mul(f.num, other[f.den]) for f in row])
    prev = _ONE
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return None
        M[k], M[piv] = M[piv], M[k]
        rk, p = M[k], M[k][k]
        for ri in M[k + 1:]:
            c = p_neg(ri[k])
            for j in range(k + 1, n):
                # p r_ij - c r_kj in one list, then exactly divided by prev
                x, y = ri[j], rk[j]
                if x or (c and y):
                    acc: list = []
                    p_addmul(acc, p, x)
                    p_addmul(acc, c, y)
                    ri[j] = p_trim(acc) if prev == _ONE else p_divexact(acc, prev)
        prev = p
    return p_ord(M[-1][-1], t0)[0] - scaling


def _lead(c: Sequence) -> int:
    """Index of the first nonzero coefficient."""
    for i, x in enumerate(c):
        if x:
            return i


def _series(num: Sequence[int], den: Sequence[int], P: int, e: int = 1):
    """(x, d) with num / (e den) = x / d modulo U^P, for den[0] != 0 and e
    > 0: P integers and d > 0 with no common factor.  Coefficient r of num
    / den has denominator den[0]^(r+1), so every division below is exact."""
    c0 = den[0]
    if len(den) == 1:
        x, d = list(num[:P]) + [0] * (P - len(num)), c0 * e
    else:
        d, x = c0 ** P, []
        for r in range(P):
            acc = d * num[r] if r < len(num) else 0
            for s in range(1, min(r, len(den) - 1) + 1):
                acc -= den[s] * x[r - s]
            x.append(acc // c0)
        d *= e
    g = gcd(d, *x) if d > 0 else -gcd(d, *x)
    if g != 1:
        x, d = [c // g for c in x], d // g
    return x, d


def _sub_mul(x, s: int, y: list, q: list, W: int):
    """s x - y q modulo U^(m+W), for x and y over U^m .. U^(m+W-1), x None
    for zero, and q over U^0 ..: W = N - m coefficients for the precision N
    of a component."""
    out = [0] * W if x is None else list(x) if s == 1 else [s * c for c in x]
    for i, c in enumerate(y):
        if c:
            for r, d in enumerate(q[: W - i]):
                if d:
                    out[i + r] -= c * d
    return out if any(out) else None


def _local(L: RatMatrix, t0: Fraction) -> Optional[Tuple[int, int, list]]:
    """(D, m, a), or None when det L vanishes identically.  D = ord_{t0}
    det L is the sum of the Bareiss orders of the connected components of
    the support of L, and a component that is not square is singular.  a
    holds the entries of L expanded at t0, m = min(0, least entry
    valuation): an entry of component c is kept modulo U^N_c, N_c = D -
    sum_c' n_c' v_c' + v_c + 1 (v_c its least entry valuation, n_c its
    number of rows), as its N_c - m coefficients, and all of c is scaled by
    the least positive integer that makes them integers."""
    D = 0
    comps = []
    for rows, cols in _components(L):
        if len(rows) != len(cols):
            return None
        d = _bareiss_order([[L[i][j] for j in cols] for i in rows], t0)
        if d is None:
            return None
        D += d
        cells = []
        for i in rows:
            for j in cols:
                f = L[i][j]
                if f:
                    pn, pd = p_shift(f.num, t0), p_shift(f.den, t0)
                    cells.append((i, j, pn, _lead(pn), pd, _lead(pd),
                                  len(f.den) - len(f.num)))
        v = min(vn - vd for _, _, _, vn, _, vd, _ in cells)
        comps.append((len(rows), v, cells))
    m = min([0] + [v for _, v, _ in comps])
    N0 = D - sum(k * v for k, v, _ in comps) + 1
    a: list = [[None] * len(L) for _ in L]
    b = t0.denominator
    for _, v, cells in comps:
        W = N0 + v - m
        kept = []
        for i, j, pn, vn, pd, vd, dd in cells:
            lo = vn - vd - m
            if lo < W:
                # f = b^dd pn / pd as U^(vn - vd) times a unit series
                e = b ** abs(dd)
                num = [c * e for c in pn[vn:]] if dd > 0 else pn[vn:]
                x, d = _series(num, pd[vd:], W - lo, e if dd < 0 else 1)
                kept.append((i, j, lo, x, d))
        scale = lcm(*(d for _, _, _, _, d in kept))
        for i, j, lo, x, d in kept:
            a[i][j] = [0] * lo + (x if d == scale else [scale // d * c for c in x])
    return D, m, a


def _pivot(a: list, k: int):
    """(lead index, i, j) of minimal valuation in the trailing submatrix,
    row-major on ties; None when it vanishes to the working precision."""
    n = len(a)
    cells = [(_lead(a[i][j]), i, j) for i in range(k, n) for j in range(k, n) if a[i][j]]
    return min(cells, default=None)


def _eliminate(a: list, k: int, groups) -> Tuple[int, list]:
    """Clear the pivot a_kk of valuation v from each group (rows, cols):
    a_ij becomes lam a_ij - a_ik q_j, then the group is divided by the gcd
    of its coefficients.  (lam, q): q_j = lam a_kj / a_kk for j > k over U^0
    .. U^(W-v-1) (absolute precision N - v), lam > 0 least making it
    integral, W the width of the pivot's component."""
    p = a[k][k]
    lo, W = _lead(p), len(p)
    inv, lam = _series((1,), p[lo:], W - lo)
    r = [-c for c in inv]
    q = [
        None if j <= k or x is None else _sub_mul(None, 1, x[lo:], r, W - lo)
        for j, x in enumerate(a[k])
    ]
    for rows, cols in groups:
        for i in rows:
            row, y = a[i], a[i][k]
            for j in cols:
                if y is not None and q[j] is not None:
                    row[j] = _sub_mul(row[j], lam, y, q[j], W)
                elif row[j] is not None and lam != 1:
                    row[j] = [lam * c for c in row[j]]
        g = gcd(*(c for i in rows for j in cols if a[i][j] is not None for c in a[i][j]))
        for i in rows if g > 1 else ():
            row = a[i]
            for j in cols:
                if row[j] is not None:
                    row[j] = [c // g for c in row[j]]
    return lam, q


def jantzen_levels(
    L: RatMatrix, t0
) -> List[Tuple[int, int, List[Tuple[Fraction, ...]]]]:
    """Layers (level r, dim E^r/E^{r+1}, basis vectors at t0) of the Jantzen
    filtration of L at t0, certified by D = ord det = sum r dim."""
    t0 = parse_frac(t0)
    n = len(L)
    local = _local(L, t0)
    if local is None:
        raise SingularFamily("determinant vanishes identically")
    D, m, a = local
    # C tracks right (domain) column operations modulo U; its columns at the
    # end are the adapted basis, regular at t0 because every quotient has
    # val >= 0
    C = [[int(i == j) for j in range(n)] for i in range(n)]
    orders = [0] * n
    for k in range(n):
        piv = _pivot(a, k)
        if piv is None:
            raise SingularFamily("family is singular at every order")
        v, pi, pj = piv
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
        if pj != k:
            for row in a + C:
                row[k], row[pj] = row[pj], row[k]
        # clearing the pivot row only changes C, by the exact multipliers
        # a_kj / a_kk at U^0; clearing the pivot column leaves each row i >
        # k that meets it a positive integer times its Schur complement row,
        # inside the pivot's component and at its precision
        rows = [i for i in range(k + 1, n) if a[i][k] is not None]
        lam, q = _eliminate(a, k, [((i,), range(k + 1, n)) for i in rows])
        for j in range(k + 1, n):
            if q[j] is not None and q[j][0]:
                f = q[j][0]
                f = f // lam if f % lam == 0 else Fraction(f, lam)
                for row in C:
                    row[j] -= f * row[k]
        orders[k] = v + m
    if D != sum(orders):
        raise SingularFamily(
            "valuation bookkeeping failed: ord det = %d, sum of layer "
            "orders = %d" % (D, sum(orders))
        )
    # one Fraction per distinct integer of C
    frac = {x: Fraction(x) for x in {x for row in C for x in row}}
    layers: Dict[int, List[Tuple[Fraction, ...]]] = {}
    for k in range(n):
        vec = tuple(frac[C[i][k]] for i in range(n))
        layers.setdefault(orders[k], []).append(vec)
    return [(r, len(vs), vs) for r, vs in sorted(layers.items())]


def level_signatures(L: RatMatrix, t0) -> List[Tuple[int, WElem]]:
    """Signatures of the residual forms on the Jantzen layers of a symmetric
    family, via congruence diagonalization over the local ring at t0,
    certified by D = ord det = sum r dim."""
    t0 = parse_frac(t0)
    n = len(L)
    if any(L[i][j] != L[j][i] for i in range(n) for j in range(i)):
        raise ValueError("level_signatures needs a symmetric family")
    degenerate = DegenerateResidual("form is identically zero on a Jantzen layer")
    local = _local(L, t0)
    if local is None:
        raise degenerate
    D, m, a = local
    levels: Dict[int, WElem] = {}
    for k in range(n):
        piv = _pivot(a, k)
        if piv is None:
            raise degenerate
        v, i0, j0 = piv
        pi = next(
            (i for i in range(k, n) if a[i][i] is not None and _lead(a[i][i]) == v),
            None,
        )
        if pi is None:
            # strictly off-diagonal minimum: row_i0 += row_j0, then
            # col_i0 += col_j0; the cross term 2 a_ij dominates a_ii + a_jj,
            # so a_ii picks up the minimal valuation regardless of signs.
            # Row i0 and row j0 lie in components that are each other's
            # transpose, so of one precision
            W = len(a[i0][j0])
            for c in range(k, n):
                if a[j0][c] is not None:
                    a[i0][c] = _sub_mul(a[i0][c], 1, a[j0][c], [-1], W)
            for r in range(k, n):
                if a[r][j0] is not None:
                    a[r][i0] = _sub_mul(a[r][i0], 1, a[r][j0], [-1], W)
            pi = i0
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            for row in a:
                row[k], row[pi] = row[pi], row[k]
        # the same update by a congruence: the block B of indices > k that
        # the pivot's row reaches in the trailing support becomes a
        # positive integer times its Schur complement, which keeps every
        # residual sign
        B, todo = set(), [k]
        while todo:
            row = a[todo.pop()]
            todo += [j for j in range(k + 1, n) if row[j] is not None and j not in B]
            B.update(todo)
        _eliminate(a, k, [(B, B)])
        w = W_ONE if a[k][k][v] > 0 else W_S
        levels[v + m] = levels.get(v + m, WElem(0, 0)) + w
    total = sum(r * w.forget() for r, w in levels.items())
    if D != total:
        raise DegenerateResidual(
            "valuation bookkeeping failed: ord det = %d, sum of layer "
            "orders = %d" % (D, total)
        )
    return sorted(levels.items())


# ---------------------------------------------------------------------------
# SL(2,R) intertwining oracle

def sl2_ktypes(parity: int, cutoff: int) -> List[int]:
    """K-type weights of one parity up to |n| <= cutoff, ascending; the
    parity and the cutoff are ints (a bool is not one)."""
    if type(parity) is not int or parity not in (1, -1):
        raise ValueError("parity must be +1 (even) or -1 (odd)")
    if type(cutoff) is not int:
        raise ValueError("cutoff must be an int (got %r)" % (cutoff,))
    return sorted({m for n in range(0 if parity == 1 else 1, cutoff + 1, 2)
                   for m in (n, -n)})


def _c_ladder(parity: int, cutoff: int) -> Dict[int, RatFn]:
    """{n: c_n(nu)} for the weights 0 <= n <= cutoff of one parity, built up
    the ladder c_{n+2} = c_n (n+1-nu)/(n+1+nu): one product per step."""
    start = 0 if parity == 1 else 1
    out = {start: RAT_ONE}
    for n in range(start + 2, cutoff + 1, 2):
        out[n] = out[n - 2] * RatFn((n - 1, -1), (n - 1, 1))
    return out


def sl2_c_function(parity: int, n: int) -> RatFn:
    """c_n(nu), equal to its closed-form product; c_{-n} = c_n by the
    per-half normalization; the parity and n are ints (a bool is not one)."""
    if type(parity) is not int or parity not in (1, -1):
        raise ValueError("parity must be +1 (even) or -1 (odd)")
    if type(n) is not int:
        raise ValueError("n must be an int (got %r)" % (n,))
    n = abs(n)
    if parity == 1 and n % 2:
        raise ValueError("even-parity K-types are even")
    if parity == -1 and n % 2 == 0:
        raise ValueError("odd-parity K-types are odd")
    return _c_ladder(parity, n)[n]


def sl2_intertwining(parity: int, cutoff: int) -> RatMatrix:
    """Diagonal intertwining family in the K-type basis of sl2_ktypes,
    normalized to 1 on each lowest K-type."""
    kt = sl2_ktypes(parity, cutoff)
    c = _c_ladder(parity, cutoff)
    n = len(kt)
    out = [[RAT_ZERO for _ in range(n)] for _ in range(n)]
    for i, w in enumerate(kt):
        out[i][i] = c[abs(w)]
    return out


def oracle_signature(parity: int, nu, cutoff: int) -> Dict[int, WElem]:
    """Sign of the c-form per K-type as 1 or s, as a limit from below: near
    nu, c_n = g (t - nu)^r with g(nu) != 0, so its sign just below nu is
    (-1)^r sign g(nu), with r its valuation and g(nu) its residual."""
    nu = parse_frac(nu)
    out: Dict[int, WElem] = {}
    kt = sl2_ktypes(parity, cutoff)
    c = _c_ladder(parity, cutoff)
    for n in kt:
        f = c[abs(n)]
        odd = f.valuation(nu) % 2 == 1
        out[n] = W_ONE if (f.residual(nu) > 0) != odd else W_S
    return out


def oracle_unitary(parity: int, nu, cutoff: int = 8) -> bool:
    """Classification by the raw operator: positivity of the invariant form
    on the K-types actually present in the quotient.

    The raw odd-parity operator is antisymmetric across the half-ladders
    (a_{-n} = -a_n), so the normalized oracle value is negated on n < 0.  At
    nu = 0 the operator degenerates and the form is the definite one."""
    nu = parse_frac(nu)
    kt = sl2_ktypes(parity, cutoff)  # checks the parity and the cutoff
    if nu == 0:
        return True
    signs = set()
    c = _c_ladder(parity, cutoff)
    for n in kt:
        v = c[abs(n)].evaluate(nu)
        if v == 0:
            continue
        if parity == -1 and n < 0:
            v = -v
        signs.add(v > 0)
        if len(signs) > 1:
            return False
    return True
