"""Signature engine: $\\mathbb{W}$-valued multiplicity matrices, expansion of
irreducibles in standards, deformation of c-invariant forms to $\\nu = 0$, and
the unitarity test.

The engine works in the signature ring $\\mathbb{W} = \\mathbb{Z}[s]/(s^2-1)$.
The block matrix $Q$ is rewritten as $Q^c_{\\Xi,\\Gamma} =
s^{(\\ell_o(\\Xi)-\\ell_o(\\Gamma))/2} Q_{\\Xi,\\Gamma}(sq)$, whose
unitriangular inverse evaluated at $q = 1$ gives the coefficients
$W^c_{\\Gamma,\\Psi}$ of $sig^c_{J(\\Psi)} = \\sum_\\Gamma W^c_{\\Gamma,\\Psi}
\\, sig^c_{I(\\Gamma)}$.  Crossing a reducibility wall from below changes the
standard's signature character by
$(s-1) \\sum_{\\Xi < \\Gamma,\\ \\Delta\\ell\\ odd}
s^{(\\ell_o(\\Xi)-\\ell_o(\\Gamma))/2} Q_{\\Xi,\\Gamma}(s)\\,
sig^c_{J(\\Xi)}$, and iterating the wall deltas down the straight-line path
$t\\nu$, $t \\in (0, 1]$, rewrites every signature character in the basis of
final tempered parameters.  All values reported at a reducible point are
limits from below, so the delta at $t = 1$ itself is never accumulated.

Termination of the recursion is certified at runtime: every standard that
enters through a wall strictly increases $|d\\lambda|^2$ while staying below
$|d\\lambda|^2 + t^2|\\nu|^2$, where $t\\nu$ is the wall point above that
wall on the calling parameter's path (or $\\nu$ itself), so below
$|d\\lambda|^2 + |\\nu|^2$.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .blocks import (
    Block,
    BlockElement,
    BlockProvider,
    _length_order,
    group_model,
    invert_multiplicity,
)
from .errors import (
    BoundViolation,
    InvariantViolation,
    MissingParity,
    UnsupportedGroup,
    UnsupportedUnequalRank,
    ValidationError,
)
from .intpoly import IntPoly, p_pack, p_slot_bits, p_trim, p_unpack
from .params import (
    LanglandsParam,
    _walls_below,
    crossing_times,
    frac_str,
    param_to_json,
)
from .rootdata import _norm_sq_parts
from .sigring import WElem, WPoly, W_ONE, W_S

__all__ = [
    "StdLabel",
    "SignatureChar",
    "UnitaryResult",
    "signature_Q",
    "signature_P",
    "irreducible_in_standards",
    "deform_step",
    "deform_to_zero",
    "hs_rewrite",
    "unitary_test",
    "ktype_signature",
]

W_S_MINUS_ONE = WElem(-1, 1)


@dataclass(frozen=True)
class StdLabel:
    """A term's parameter and the name ``SignatureChar.items`` renders."""

    text: str
    param: LanglandsParam = field(repr=False)


class SignatureChar:
    """Finite W-combination of basis elements keyed by Langlands parameter:
    standards or irreducibles of one block, or final tempered parameters.
    Only ``items`` renders names."""

    __slots__ = ("group", "basis", "terms")

    def __init__(self, group: str, basis: str,
                 terms: Optional[Dict[LanglandsParam, WElem]] = None):
        self.group = group
        self.basis = basis
        self.terms: Dict[LanglandsParam, WElem] = {}
        if terms:
            for k, w in terms.items():
                self.add(k, w)

    def add(self, key: LanglandsParam, w: WElem) -> None:
        cur = self.terms.get(key)
        new = w if cur is None else cur + w
        if new:
            self.terms[key] = new
        elif cur is not None:
            del self.terms[key]

    def add_char(self, other: "SignatureChar", scale: WElem = W_ONE) -> None:
        if other.basis != self.basis:
            raise ValueError(
                "cannot mix bases %r and %r" % (self.basis, other.basis)
            )
        for k, w in other.terms.items():
            self.add(k, scale * w)

    def copy(self) -> "SignatureChar":
        out = SignatureChar(self.group, self.basis)
        out.terms = dict(self.terms)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignatureChar)
            and self.group == other.group
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _namer(self) -> Callable[[LanglandsParam], str]:
        """The group model's names in this basis: ``PS0`` in the final
        tempered basis, ``PS+(0)`` in the others."""
        model = group_model(self.group)
        return model.label_text if self.basis == "final_tempered" else model.label

    def items(self) -> List[Tuple[StdLabel, WElem]]:
        """Named terms by name, ties in entry order."""
        name = self._namer()
        out = [(StdLabel(name(k), k), w) for k, w in self.terms.items()]
        out.sort(key=lambda kv: kv[0].text)
        return out

    def to_json_obj(self) -> dict:
        terms = [{"label": {"text": label.text, "param": param_to_json(label.param)},
                  "w": w.to_json()} for label, w in self.items()]
        return {"basis": self.basis, "group": self.group, "terms": terms}

    def __repr__(self) -> str:
        return "{%s}" % ", ".join("%s: %s" % (lab.text, w) for lab, w in self.items())


# ---------------------------------------------------------------------------
# W[q] block matrices

WPolyMatrix = Dict[Tuple[int, int], WPoly]
QcCols = Dict[int, List[Tuple[int, int, int]]]


def signature_Q(b: Block) -> WPolyMatrix:
    """$Q^c_{\\Xi,\\Gamma} = s^{(\\ell_o(\\Xi)-\\ell_o(\\Gamma))/2}
    Q_{\\Xi,\\Gamma}(sq)$, including unit diagonal entries.  The block was
    validated when it was built: orientation numbers share one parity and
    Q has no negative coefficient, so neither is checked again here."""
    orient = {e.id: e.orient for e in b.elements}
    out: WPolyMatrix = {}
    for e in b.elements:
        out[(e.id, e.id)] = WPoly.from_int_coeffs((1,))
    for (r, c), coeffs in b.Q.items():
        if r != c:
            out[(r, c)] = WPoly.from_int_coeffs(coeffs).twist_sq(orient[r] - orient[c])
    return out


def _qc_entry(coeffs: IntPoly, h: int) -> Tuple[IntPoly, IntPoly]:
    """$Q^c_{r,k} = Q_e(q) + Q_o(q) s$ read from the integer $Q_{r,k}$, as
    (Q_e, Q_o), where $h = (\\ell_o(r)-\\ell_o(k))/2$: the coefficient
    $c_i q^i$ becomes $c_i q^i s^{i+h}$, so it goes to Q_e when $i + h$ is
    even and to Q_o when it is odd."""
    return (p_trim([c if (i + h) % 2 == 0 else 0 for i, c in enumerate(coeffs)]),
            p_trim([c if (i + h) % 2 else 0 for i, c in enumerate(coeffs)]))


def _qc_cols(b: Block, bits: int) -> QcCols:
    """The off-diagonal entries of each column of $Q^c$ by ``_qc_entry``, as
    (row, Q_e, Q_o) packed at $q = 2^{bits}$, or at q = 1 for bits = 0."""
    orient = {e.id: e.orient for e in b.elements}
    cols: QcCols = {}
    for (r, k), coeffs in b.Q.items():
        if r != k:
            # the block's orientation numbers share one parity
            q_e, q_o = _qc_entry(coeffs, (orient[r] - orient[k]) // 2)
            cols.setdefault(k, []).append((r, p_pack(q_e, bits), p_pack(q_o, bits)))
    return cols


def _solve_column(order: List[int], cols: QcCols, col: int) -> Dict[int, Tuple[int, int]]:
    """Column col of $(Q^c)^{-1}$ at the point of ``cols`` as {row: (x_a, x_b)},
    its nonzero entries $x_a + x_b s$.  Down the length order from col, each
    final unknown is pushed into the rows of its column: $x_r \\mathrel{-}=
    (Q_e x_a + Q_o x_b) + (Q_e x_b + Q_o x_a) s$, only nonzero products."""
    acc = {col: (1, 0)}
    for k in reversed(order[:order.index(col) + 1]):
        x_a, x_b = acc.get(k, (0, 0))
        if x_a or x_b:
            for r, q_e, q_o in cols.get(k, ()):
                a, b = acc.get(r, (0, 0))
                acc[r] = (a - q_e * x_a - q_o * x_b, b - q_e * x_b - q_o * x_a)
    return {k: v for k, v in acc.items() if v[0] or v[1]}


def signature_P(b: Block) -> WPolyMatrix:
    """$P^c_{\\Gamma,\\Psi} = (-1)^{\\ell(\\Psi)-\\ell(\\Gamma)}$ times the
    $(Q^c)^{-1}$ entry, solved by columns at $q = 2^{bits}$ (``p_slot_bits``),
    checked, missing and extra entries included, against the closed form
    $s^{(\\ell_o(\\Psi)-\\ell_o(\\Gamma))/2} P_{\\Gamma,\\Psi}(sq)$."""
    lengths = {e.id: e.length for e in b.elements}
    orient = {e.id: e.orient for e in b.elements}
    order = _length_order(b)
    bits = p_slot_bits(order, b.Q)
    cols = _qc_cols(b, bits)
    out: WPolyMatrix = {}
    for c in order:
        for r, (x_a, x_b) in _solve_column(order, cols, c).items():
            sign = -1 if (lengths[c] - lengths[r]) % 2 else 1
            out[(r, c)] = WPoly(p_unpack(sign * x_a, bits), p_unpack(sign * x_b, bits))
    # closed-form cross-check: the same twist applied to the plain P matrix
    P = invert_multiplicity(b)
    twisted = {(r, c): WPoly(coeffs).twist_sq(orient[c] - orient[r])
               for (r, c), coeffs in P.items()}
    if twisted != out:
        raise InvariantViolation(
            "signature-P: inverse route and twist route disagree at (%d,%d)"
            % next(k for k in {**twisted, **out} if twisted.get(k) != out.get(k)))
    return out


def _resolve_element(b: Block, psi) -> BlockElement:
    if isinstance(psi, LanglandsParam):
        e = b.find(psi)
        if e is None:
            raise KeyError("parameter not found in block")
        return e
    return b.element(psi)


def irreducible_in_standards(b: Block, psi) -> SignatureChar:
    """Expansion $sig^c_{J(\\Psi)} = \\sum_\\Gamma W^c_{\\Gamma,\\Psi}
    \\, sig^c_{I(\\Gamma)}$ with $W^c = (Q^c)^{-1}$ at $q = 1$; forgetting
    $s$ recovers the character-formula row $M_{\\cdot,\\Psi}$.  Only the
    column of $\\Psi$ is solved, on the values of $Q^c$ at q = 1."""
    column = _solve_column(_length_order(b), _qc_cols(b, 0), _resolve_element(b, psi).id)
    return SignatureChar(b.group, "standard", {
        e.param: WElem(*column[e.id]) for e in b.elements if e.id in column})


def deform_step(b: Block, gamma) -> SignatureChar:
    """Signature delta on crossing the wall from below:
    $(s-1) \\sum_{\\Xi<\\Gamma,\\ \\Delta\\ell\\ odd}
    s^{(\\ell_o(\\Xi)-\\ell_o(\\Gamma))/2} Q_{\\Xi,\\Gamma}(s)\\,
    sig^c_{J(\\Xi)}$, expressed in the irreducible basis of the block.  Each
    coefficient is $(s-1) Q^c_{\\Xi,\\Gamma}(1)$, read by ``_qc_entry``."""
    e_gamma = _resolve_element(b, gamma)
    out = SignatureChar(b.group, "irreducible")
    for e in b.elements:
        if e.length >= e_gamma.length or (e_gamma.length - e.length) % 2 == 0:
            continue
        coeffs = b.q_poly(e.id, e_gamma.id)
        if not coeffs:
            continue
        # the block's orientation numbers share one parity
        q_e, q_o = _qc_entry(coeffs, (e.orient - e_gamma.orient) // 2)
        out.add(e.param, W_S_MINUS_ONE * WElem(sum(q_e), sum(q_o)))
    return out


# ---------------------------------------------------------------------------
# deformation to nu = 0

def hs_rewrite(g: LanglandsParam, group: str) -> SignatureChar:
    """Rewrite the standard $I(\\Lambda, 0)$, given by its parameter ``g``
    at $\\nu = 0$, as a sum of final tempered parameters, one per lowest
    K-type, each with coefficient 1.  A final $\\Lambda$ is its own
    rewrite, ``g`` itself, reused and not rebuilt; a nonfinal one is
    rewritten by the model's Hecht-Schmid table."""
    if any(g.nu) or not g.is_real():
        raise ValueError("hs_rewrite needs a parameter at nu = 0")
    tempered = (g,) if g.discrete.final else group_model(group).hs_rewrite(g.discrete)
    return SignatureChar(group, "final_tempered", {t: W_ONE for t in tempered})


# a wall's jump before its s-flip, in positions of its block's elements:
# per constituent Xi of the delta, its position, its coefficient and its
# column of (Q^c)^{-1} at q = 1 as (child position, W) pairs
Jump = Tuple[Tuple[int, WElem, Tuple[Tuple[int, WElem], ...]], ...]


def _jump(blk: Block, e: BlockElement) -> Jump:
    """The jump at the wall element ``e`` from the block's jump table; on a
    miss, solved by ``deform_step`` and ``irreducible_in_standards`` and
    stored in the element positions that the blocks sharing it have in common."""
    jump = blk.jumps.get(e.id)
    if jump is None:
        pos = {x.param: i for i, x in enumerate(blk.elements)}
        jump = blk.jumps[e.id] = tuple(
            (pos[xi], coef, tuple((pos[child], w) for child, w in
                                  irreducible_in_standards(blk, xi).terms.items()))
            for xi, coef in deform_step(blk, e.id).terms.items())
    return jump


def _less(x: Tuple[int, int], y: Tuple[int, int]) -> bool:
    """x < y for fractions given as (numerator, positive denominator)."""
    return x[0] * y[1] < y[0] * x[1]


def _frac_text(x: Tuple[int, int]) -> str:
    return frac_str(Fraction(*x))


def _require_real(g: LanglandsParam) -> None:
    if not g.is_real():
        raise ValidationError(
            "nu_im = (%s) is nonzero; the engine takes real parameters only"
            % ", ".join(frac_str(x) for x in g.nu_im)
        )


def deform_to_zero(
    g: LanglandsParam,
    provider: BlockProvider,
    group: str = "sl2r",
    trace: Optional[Callable[[dict], None]] = None,
) -> SignatureChar:
    """Signature character of $I(\\Gamma)$ (limit from below at reducible
    points) rewritten in the final tempered basis by crossing every
    reducibility wall on the straight path $t\\nu$, $t \\in (0, 1)$.

    The delta at a wall enters with one factor of $s$ per reducibility wall
    remaining below it on the path: each of those later crossings flips the
    form on the K-types carrying this wall's layers, so the layer's form
    just below the wall is $s^a$ times the positive form, and the jump is
    $s^{a+1}-s^a$ rather than $s-1$.

    The result is $hs(0)$ plus one jump per wall below $\\nu$, and each
    jump depends only on its wall point $g_i = (\\Lambda, t_i\\nu)$: the
    crossing times of $g_i$ are $\\{t/t_i : t \\le t_i\\}$, exactly, with
    the same number of walls below each.  So the limit from below at every
    wall point crossed is a partial sum, equal to ``deform_to_zero(g_i)``
    on a fresh provider.  The provider remembers the point above each wall
    a walk crosses, with its partial sum, and forgets them when a library
    is registered.  The walk down the walls stops at the first wall point
    it remembers, or at $(\\Lambda, 0)$, which ``hs_rewrite`` answers.  A
    walk that crosses no wall ($\\nu = 0$ among them) reads no block: it is
    rewritten, not remembered.
    A traced call reads and writes the memo like any other call and only
    adds records of the walk it makes: the walls from the top down, each
    followed by its children in the block's element order.  A remembered
    point ends the walk there, records included, so a complete stream
    needs a fresh provider.  Every call returns an object of its own,
    which the caller may change; the provider's entries are never handed
    out.  A wall's jump before its flip reads only the block's ids,
    lengths, orientation numbers and Q, so it is read from the jump table
    of the block holding the wall point, which a translation family shares
    (``Block.jumps``): ``deform_step`` and ``irreducible_in_standards``
    solve it once per table and wall element.

    Each standard entering at the wall $t_j$ must have $|d\\lambda'|^2$
    strictly between $|d\\lambda|^2$ and $|d\\lambda|^2 +
    t_{prev}^2|\\nu|^2$, where $t_{prev}$ is the next crossing time above
    $t_j$, or 1 at the top: the cap a direct call on that wall point uses,
    so a remembered wall point is certified as a direct call would be.
    The trace prints the caller's cap $|d\\lambda|^2 + |\\nu|^2$.  Both
    norms are integer fractions (numerator, denominator), so the bound
    compares integers.  A nonzero nu_im raises ValidationError."""
    _require_real(g)
    if not any(g.nu):
        return hs_rewrite(g, group)
    hit = provider.deformation((group, g))
    if hit is not None:
        return hit.copy()

    cart = group_model(group).cartan(g.discrete.cartan)
    dl2, (nu2_num, nu2_den) = g.discrete.dlambda_sq, _norm_sq_parts(g.nu)
    # the value at a reducible point is the limit from below; the delta at
    # the point itself is not accumulated
    times = crossing_times(g, cart)
    if times and times[0] == 1:
        times = times[1:]
    # per wall crossed: the point whose limit from below its jump
    # completes, and the jump as (child deformation, coefficient) pairs
    crossed: List[Tuple[LanglandsParam, List[Tuple[SignatureChar, WElem]]]] = []
    below: Optional[SignatureChar] = None
    above, above_point = Fraction(1), g
    for pos, t in enumerate(times):
        gt = LanglandsParam(g.discrete, tuple(t * x for x in g.nu))
        blk, e_gt, blk_idx = provider.find(group, gt)
        elements, jump = blk.elements, _jump(blk, e_gt)
        # times is deduplicated and descending: the walls below t are the
        # ones after it
        flip = (len(times) - 1 - pos) % 2
        if trace is not None:
            delta = SignatureChar(group, "irreducible", {
                elements[xp].param: W_S * coef if flip else coef for xp, coef, _ in jump})
            trace(
                {
                    "event": "crossing",
                    "t": frac_str(t),
                    "inf_char": [frac_str(x) for x in blk.inf_char],
                    "block": blk_idx,
                    "delta": delta.to_json_obj(),
                }
            )
        p, q = above.numerator, above.denominator
        cap = (dl2[0] * nu2_den * q * q + nu2_num * dl2[1] * p * p,
               dl2[1] * nu2_den * q * q)
        children = []
        for _, coef, column in jump:
            if flip:
                coef = W_S * coef
            for cp, w in column:
                child = elements[cp].param
                cdl2 = child.discrete.dlambda_sq
                if not (_less(dl2, cdl2) and _less(cdl2, cap)):
                    raise BoundViolation(
                        "recursion bound violated: |dlambda'|^2 = %s "
                        "not in (%s, %s)"
                        % (_frac_text(cdl2), _frac_text(dl2), _frac_text(cap))
                    )
                if trace is not None:
                    trace(
                        {
                            "event": "recurse",
                            "param": param_to_json(child),
                            "dlambda_sq": _frac_text(cdl2),
                            "cap": _frac_text((dl2[0] * nu2_den + nu2_num * dl2[1],
                                               dl2[1] * nu2_den)),
                        }
                    )
                children.append((deform_to_zero(child, provider, group, trace), coef * w))
        crossed.append((above_point, children))
        below = provider.deformation((group, gt))
        if below is not None:
            break
        above, above_point = t, gt

    out = below.copy() if below is not None else hs_rewrite(
        LanglandsParam(g.discrete, tuple(Fraction(0) for _ in g.nu)), group)
    # sum upward, remembering a copy of each partial sum under its point:
    # every entry is an object of its own, and so is the result
    for point, children in reversed(crossed):
        for sub, coef in children:
            out.add_char(sub, coef)
        provider.remember_deformation((group, point), out.copy())
    return out


# ---------------------------------------------------------------------------
# unitarity

@dataclass
class UnitaryResult:
    """Verdict plus the certificate: the tempered expansion B and the terms
    of B violating the monomial or matching rules.  The parity bits used
    and the violating terms are named from B when read."""

    verdict: str
    B: SignatureChar
    reason: str
    # not in the repr: a frozenset's order follows the string hash seed
    violating: FrozenSet[LanglandsParam] = field(default=frozenset(), repr=False)

    @property
    def is_unitary(self) -> bool:
        return self.verdict == "unitary"

    @property
    def epsilon(self) -> Dict[str, int]:
        """The K-type parity bit of every monomial coefficient of B, by name."""
        return {label.text: label.param.discrete.ktype_parity
                for label, w in self.B.items() if w.is_monomial()}

    @property
    def violations(self) -> List[str]:
        """The names of the violating terms, in the order of ``B.items()``;
        no other term is named."""
        name = self.B._namer()
        return [text for text, _ in sorted(
            (name(g), i) for i, g in enumerate(self.B.terms) if g in self.violating)]


def unitary_test(
    g: LanglandsParam,
    provider: BlockProvider,
    group: str = "sl2r",
) -> UnitaryResult:
    """Decide unitarity of $J(\\Psi)$ from the deformed signature character
    $B = \\sum_\\Gamma W^c_{\\Gamma,\\Psi}\\,deform(I(\\Gamma))$: unitary iff
    every nonzero coefficient is a pure W-monomial $\\pm s^e$ whose exponent
    matches the parity bit $\\epsilon(\\Lambda')$ globally, or anti-matches
    globally.  The test is invariant under flipping every parity bit, which
    absorbs the global square-root choice behind $\\epsilon$.  Nothing is
    named.  A nonzero nu_im raises ValidationError.  At a wall point the
    forms are limits from below (ALTV), so in rank one the terms of
    $\\Psi$'s column other than $\\Psi$, the layers entering at $\\nu$, gain
    $s^a$, a the number of walls below $\\nu$ (as in ``deform_to_zero``); a
    one-term column reads no wall.  The rule for a general block is open."""
    _require_real(g)
    model = group_model(group)
    if not model.cartans:
        raise UnsupportedGroup("unitarity test needs a built-in group (got %r)" % group)
    if not model.equal_rank:
        raise UnsupportedUnequalRank(
            "%s is not equal rank; the c-form to invariant-form "
            "comparison is out of scope" % group
        )

    if all(x == 0 for x in g.nu):
        return UnitaryResult("unitary", hs_rewrite(g, group),
                             "tempered parameter (nu = 0)")

    blk, e_psi, _ = provider.find(group, g)
    column = irreducible_in_standards(blk, e_psi.id).terms
    flip = len(column) > 1 and _walls_below(g, model.cartan(g.discrete.cartan)) % 2
    B = SignatureChar(group, "final_tempered")
    for child, w in column.items():
        B.add_char(deform_to_zero(child, provider, group), W_S * w if flip and child != g else w)

    impure = frozenset(t for t, coef in B.terms.items() if not coef.is_monomial())
    missing = [t for t in B.terms if t not in impure and t.discrete.ktype_parity is None]
    if missing:
        raise MissingParity("tempered parameter %s carries no K-type parity bit"
                            % min(map(B._namer(), missing)))
    if impure:
        return UnitaryResult("nonunitary", B,
                             "coefficients with both W-components nonzero", impure)
    match_viol = frozenset(t for t, coef in B.terms.items()
                           if coef.s_exponent() != t.discrete.ktype_parity)
    anti_viol = frozenset(B.terms) - match_viol
    if not match_viol or not anti_viol:
        return UnitaryResult("unitary", B, "pure monomials with one global s-orientation")
    return UnitaryResult("nonunitary", B, "s-exponent pattern matches neither orientation",
                         min(match_viol, anti_viol, key=len))


# ---------------------------------------------------------------------------
# K-type expansion (built-in tables)

def ktype_signature(sc: SignatureChar, cutoff: int) -> Dict[int, WElem]:
    """Expand a final tempered signature character into K-type weights up to
    |weight| <= cutoff, as {weight: coefficient} in ascending weight with
    zero coefficients dropped: the shape of ``jantzen.oracle_signature``.
    Each tempered parameter contributes its coefficient on every K-type of
    its half or full ladder."""
    support = group_model(sc.group).ktype_support
    if support is None:
        raise UnsupportedGroup("no built-in K-type table for group %r" % sc.group)
    if sc.basis != "final_tempered":
        raise ValueError("ktype_signature needs a final_tempered character")
    acc: Dict[int, WElem] = {}
    for g, coef in sc.terms.items():
        for n in support(g, cutoff):
            acc[n] = acc.get(n, WElem(0, 0)) + coef
    return {n: acc[n] for n in sorted(acc) if acc[n]}
