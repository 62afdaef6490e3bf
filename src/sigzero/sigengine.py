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
$|d\\lambda|^2 + |\\nu|^2$ of the calling parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, Union

from .blocks import (
    SL2R,
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
    MissingBlock,
    MissingParity,
    OddOrientationDifference,
    UnsupportedGroup,
    UnsupportedUnequalRank,
)
from .params import (
    DiscreteParam,
    LanglandsParam,
    crossing_times,
    frac_str,
    param_to_json,
)
from .rootdata import norm_sq
from .sigring import WElem, WPoly, W_ONE, s_power

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
    "label_text",
    "sl2r_lowest_ktype",
]

W_S_MINUS_ONE = WElem(-1, 1)


def label_text(group: str, g: LanglandsParam) -> str:
    """Display label of a basis parameter; tempered parameters may get a
    dedicated name (PS0 for the spherical principal series at nu = 0)."""
    return group_model(group).label_text(g)


@dataclass(frozen=True)
class StdLabel:
    """Hashable handle for one basis parameter of a signature character."""

    group: str
    text: str
    param: LanglandsParam = field(repr=False)

    @staticmethod
    def of(group: str, g: LanglandsParam, text: Optional[str] = None) -> "StdLabel":
        return StdLabel(
            group=group,
            text=text if text is not None else label_text(group, g),
            param=g,
        )


LabelKey = Union[StdLabel, int]


class SignatureChar:
    """Finite W-combination of basis elements: standards or irreducibles of
    one block, final tempered parameters, or K-types."""

    __slots__ = ("group", "basis", "terms")

    def __init__(self, group: str, basis: str,
                 terms: Optional[Dict[LabelKey, WElem]] = None):
        self.group = group
        self.basis = basis
        self.terms: Dict[LabelKey, WElem] = {}
        if terms:
            for k, w in terms.items():
                self.add(k, w)

    def add(self, label: LabelKey, w: WElem) -> None:
        cur = self.terms.get(label)
        new = w if cur is None else cur + w
        if new:
            self.terms[label] = new
        elif cur is not None:
            del self.terms[label]

    def add_char(self, other: "SignatureChar", scale: WElem = W_ONE) -> None:
        if other.basis != self.basis:
            raise ValueError(
                "cannot mix bases %r and %r" % (self.basis, other.basis)
            )
        for k, w in other.terms.items():
            self.add(k, scale * w)

    def scaled(self, w: WElem) -> "SignatureChar":
        out = SignatureChar(self.group, self.basis)
        for k, v in self.terms.items():
            out.add(k, w * v)
        return out

    def __add__(self, other: "SignatureChar") -> "SignatureChar":
        out = SignatureChar(self.group, self.basis, dict(self.terms))
        out.add_char(other)
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

    @staticmethod
    def _order(label: LabelKey):
        if isinstance(label, int):
            return (label,)
        return (label.text,)

    def items(self) -> List[Tuple[LabelKey, WElem]]:
        return sorted(self.terms.items(), key=lambda kv: self._order(kv[0]))

    def to_json_obj(self) -> dict:
        terms = []
        for label, w in self.items():
            if isinstance(label, int):
                lab = {"n": label}
            else:
                lab = {"text": label.text, "param": param_to_json(label.param)}
            terms.append({"label": lab, "w": w.to_json()})
        return {"basis": self.basis, "group": self.group, "terms": terms}

    def __repr__(self) -> str:
        inner = ", ".join(
            "%s: %s" % (lab if isinstance(lab, int) else lab.text, w)
            for lab, w in self.items()
        )
        return "{%s}" % inner


# ---------------------------------------------------------------------------
# W[q] block matrices

WPolyMatrix = Dict[Tuple[int, int], WPoly]


def signature_Q(b: Block) -> WPolyMatrix:
    """$Q^c_{\\Xi,\\Gamma} = s^{(\\ell_o(\\Xi)-\\ell_o(\\Gamma))/2}
    Q_{\\Xi,\\Gamma}(sq)$, including unit diagonal entries."""
    orient = {e.id: e.orient for e in b.elements}
    out: WPolyMatrix = {}
    for e in b.elements:
        out[(e.id, e.id)] = WPoly.from_int_coeffs((1,))
    for (r, c), coeffs in b.Q.items():
        if r == c:
            continue
        delta = orient[r] - orient[c]
        if delta % 2 != 0:
            raise OddOrientationDifference(
                "orientation difference %d between %d and %d is odd"
                % (delta, r, c)
            )
        pc = WPoly.from_int_coeffs(coeffs).twist_sq(delta)
        for _, w in pc.items():
            if w.p < 0 or w.q < 0:
                raise InvariantViolation(
                    "nonnegative-coefficients: Q^c[%d,%d] has a negative "
                    "component" % (r, c)
                )
        out[(r, c)] = pc
    return out


def _invert_unitriangular(b: Block, mat: WPolyMatrix) -> WPolyMatrix:
    """Inverse of a matrix that is unitriangular in the length order."""
    order = _length_order(b)
    n = len(order)
    inv: WPolyMatrix = {}
    one = WPoly.from_int_coeffs((1,))
    for j in range(n):
        inv[(order[j], order[j])] = one
        for i in range(j - 1, -1, -1):
            acc = WPoly.from_items(())
            for k in range(i + 1, j + 1):
                a = mat.get((order[i], order[k]))
                x = inv.get((order[k], order[j]))
                if a is not None and x is not None and a and x:
                    acc = acc + a * x
            if acc:
                inv[(order[i], order[j])] = -acc
    return inv


def _qc_inverse(b: Block) -> WPolyMatrix:
    """$(Q^c)^{-1}$, the matrix whose q = 1 columns expand irreducibles."""
    return _invert_unitriangular(b, signature_Q(b))


def signature_P(b: Block) -> WPolyMatrix:
    """$P^c_{\\Gamma,\\Psi} = (-1)^{\\ell(\\Psi)-\\ell(\\Gamma)}$ times the
    $(Q^c)^{-1}$ entry, computed by exact unitriangular inversion and checked
    against the closed form $s^{(\\ell_o(\\Psi)-\\ell_o(\\Gamma))/2}
    P_{\\Gamma,\\Psi}(sq)$."""
    lengths = {e.id: e.length for e in b.elements}
    orient = {e.id: e.orient for e in b.elements}
    qc_inv = _qc_inverse(b)
    out: WPolyMatrix = {}
    for (r, c), v in qc_inv.items():
        sign = -1 if (lengths[c] - lengths[r]) % 2 else 1
        out[(r, c)] = v * sign
    # closed-form cross-check: the same twist applied to the plain P matrix
    P = invert_multiplicity(b)
    for (r, c), coeffs in P.items():
        twisted = WPoly.from_int_coeffs(coeffs).twist_sq(orient[c] - orient[r])
        if twisted != out.get((r, c), WPoly.from_items(())):
            raise InvariantViolation(
                "signature-P: inverse route and twist route disagree at "
                "(%d,%d)" % (r, c)
            )
    return out


def _resolve_element(b: Block, psi) -> BlockElement:
    if isinstance(psi, BlockElement):
        return b.element(psi.id)
    if isinstance(psi, LanglandsParam):
        e = b.find(psi)
        if e is None:
            raise KeyError("parameter not found in block")
        return e
    return b.element(int(psi))


def irreducible_in_standards(b: Block, psi) -> SignatureChar:
    """Expansion $sig^c_{J(\\Psi)} = \\sum_\\Gamma W^c_{\\Gamma,\\Psi}
    \\, sig^c_{I(\\Gamma)}$ with $W^c = (Q^c)^{-1}$ at $q = 1$; forgetting
    $s$ recovers the character-formula row $M_{\\cdot,\\Psi}$."""
    return _column_in_standards(b, _qc_inverse(b), psi)


def _column_in_standards(b: Block, qc_inv: WPolyMatrix, psi) -> SignatureChar:
    """The column of $\\Psi$ in $(Q^c)^{-1}$ at $q = 1$, as a signature
    character in the standard basis."""
    e_psi = _resolve_element(b, psi)
    out = SignatureChar(b.group, "standard")
    for e in b.elements:
        v = qc_inv.get((e.id, e_psi.id))
        if v is None:
            continue
        w = v.eval_one()
        if w:
            out.add(StdLabel.of(b.group, e.param, e.label), w)
    return out


def deform_step(b: Block, gamma) -> SignatureChar:
    """Signature delta on crossing the wall from below:
    $(s-1) \\sum_{\\Xi<\\Gamma,\\ \\Delta\\ell\\ odd}
    s^{(\\ell_o(\\Xi)-\\ell_o(\\Gamma))/2} Q_{\\Xi,\\Gamma}(s)\\,
    sig^c_{J(\\Xi)}$, expressed in the irreducible basis of the block."""
    e_gamma = _resolve_element(b, gamma)
    out = SignatureChar(b.group, "irreducible")
    for e in b.elements:
        if e.id == e_gamma.id or e.length >= e_gamma.length:
            continue
        if (e_gamma.length - e.length) % 2 == 0:
            continue
        coeffs = b.q_poly(e.id, e_gamma.id)
        if not coeffs:
            continue
        delta = e.orient - e_gamma.orient
        if delta % 2 != 0:
            raise OddOrientationDifference(
                "orientation difference %d between %d and %d is odd"
                % (delta, e.id, e_gamma.id)
            )
        q_at_s = WPoly.from_int_coeffs(coeffs).eval_s()
        coef = W_S_MINUS_ONE * s_power(delta // 2) * q_at_s
        if coef:
            out.add(StdLabel.of(b.group, e.param, e.label), coef)
    return out


# ---------------------------------------------------------------------------
# deformation to nu = 0

def hs_rewrite(d: DiscreteParam, group: str) -> SignatureChar:
    """Rewrite the standard $I(\\Lambda, 0)$ as a sum of final tempered
    parameters, one per lowest K-type, each with coefficient 1."""
    tempered = group_model(group).hs_rewrite(d)
    return SignatureChar(group, "final_tempered",
                         {StdLabel.of(group, g): W_ONE for g in tempered})


def _block_containing(provider: BlockProvider, group: str,
                      g: LanglandsParam) -> Tuple[Block, BlockElement, int]:
    key = group_model(group).block_key(g)
    blocks = provider.get(group, key)
    for i, blk in enumerate(blocks):
        e = blk.find(g)
        if e is not None:
            return blk, e, i
    raise MissingBlock(
        "no block at infinitesimal character %s contains the parameter %s"
        % ([frac_str(Fraction(x)) for x in key], label_text(group, g))
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

    Results are remembered by the provider, which forgets them when a
    library is registered; a traced call recomputes so that its stream is
    complete."""
    key = (group, g)
    if trace is None:
        hit = provider.deformation(key)
        if hit is not None:
            return hit

    if all(x == 0 for x in g.nu):
        out = hs_rewrite(g.discrete, group)
    else:
        cart = group_model(group).cartan(g.discrete.cartan)
        dl2 = norm_sq(g.discrete.dlambda)
        cap = dl2 + norm_sq(g.nu)
        out = SignatureChar(group, "final_tempered")
        times = crossing_times(g, cart)
        for t in times:
            if t == 1:
                # the value at a reducible point is the limit from below;
                # the delta at the point itself is not accumulated
                continue
            gt = LanglandsParam(g.discrete, tuple(t * x for x in g.nu))
            blk, _, blk_idx = _block_containing(provider, group, gt)
            delta = deform_step(blk, gt)
            walls_below = sum(1 for u in times if u < t)
            if walls_below % 2:
                delta = delta.scaled(s_power(1))
            if trace is not None:
                trace(
                    {
                        "event": "crossing",
                        "t": frac_str(t),
                        "inf_char": [
                            frac_str(Fraction(x)) for x in blk.inf_char
                        ],
                        "block": blk_idx,
                        "delta": delta.to_json_obj(),
                    }
                )
            for label, coef in delta.items():
                expansion = _column_in_standards(
                    blk, provider.inverse(blk, _qc_inverse), label.param)
                for slabel, w in expansion.items():
                    child = slabel.param
                    cdl2 = norm_sq(child.discrete.dlambda)
                    if not (dl2 < cdl2 < cap):
                        raise BoundViolation(
                            "recursion bound violated: |dlambda'|^2 = %s "
                            "not in (%s, %s)"
                            % (frac_str(cdl2), frac_str(dl2), frac_str(cap))
                        )
                    if trace is not None:
                        trace(
                            {
                                "event": "recurse",
                                "param": param_to_json(child),
                                "dlambda_sq": frac_str(cdl2),
                                "cap": frac_str(cap),
                            }
                        )
                    sub = deform_to_zero(child, provider, group, trace)
                    out.add_char(sub, coef * w)
        out.add_char(
            deform_to_zero(
                LanglandsParam(g.discrete, tuple(Fraction(0) for _ in g.nu)),
                provider,
                group,
                trace,
            )
        )

    provider.remember_deformation(key, out)
    return out


# ---------------------------------------------------------------------------
# unitarity

@dataclass
class UnitaryResult:
    """Verdict plus the certificate: the tempered expansion B, the parity
    bits used, and the labels violating the monomial or matching rules."""

    verdict: str
    B: SignatureChar
    epsilon: Dict[str, int]
    violations: List[str]
    reason: str

    @property
    def is_unitary(self) -> bool:
        return self.verdict == "unitary"


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
    absorbs the global square-root choice behind $\\epsilon$."""
    model = group_model(group)
    if not model.cartans:
        raise UnsupportedGroup("unitarity test needs a built-in group (got %r)" % group)
    if not model.equal_rank:
        raise UnsupportedUnequalRank(
            "%s is not equal rank; the c-form to invariant-form "
            "comparison is out of scope" % group
        )

    if all(x == 0 for x in g.nu):
        B = hs_rewrite(g.discrete, group)
        eps = {
            lab.text: lab.param.discrete.ktype_parity for lab, _ in B.items()
        }
        return UnitaryResult("unitary", B, eps, [],
                             "tempered parameter (nu = 0)")

    blk, e_psi, _ = _block_containing(provider, group, g)
    expansion = _column_in_standards(
        blk, provider.inverse(blk, _qc_inverse), e_psi)
    B = SignatureChar(group, "final_tempered")
    for slabel, w in expansion.items():
        B.add_char(deform_to_zero(slabel.param, provider, group), w)

    eps: Dict[str, int] = {}
    exps: Dict[str, int] = {}
    impure: List[str] = []
    for label, coef in B.items():
        if not coef.is_monomial():
            impure.append(label.text)
            continue
        parity = label.param.discrete.ktype_parity
        if parity is None:
            raise MissingParity(
                "tempered parameter %s carries no K-type parity bit"
                % label.text
            )
        eps[label.text] = parity
        exps[label.text] = coef.s_exponent()
    if impure:
        return UnitaryResult(
            "nonunitary", B, eps, impure,
            "coefficients with both W-components nonzero",
        )
    match_viol = [t for t in exps if exps[t] != eps[t]]
    anti_viol = [t for t in exps if exps[t] != 1 - eps[t]]
    if not match_viol or not anti_viol:
        return UnitaryResult("unitary", B, eps, [],
                             "pure monomials with one global s-orientation")
    violations = match_viol if len(match_viol) <= len(anti_viol) else anti_viol
    return UnitaryResult(
        "nonunitary", B, eps, violations,
        "s-exponent pattern matches neither orientation",
    )


# ---------------------------------------------------------------------------
# K-type expansion (built-in tables)

def sl2r_lowest_ktype(g: LanglandsParam) -> int:
    """Lowest K-type weight of a final tempered SL(2,R) parameter."""
    return SL2R.lowest_ktype(g)


def ktype_signature(sc: SignatureChar, cutoff: int) -> SignatureChar:
    """Expand a final tempered signature character into K-type weights up to
    |weight| <= cutoff; each tempered parameter contributes its coefficient
    on every K-type of its half or full ladder."""
    support = group_model(sc.group).ktype_support
    if support is None:
        raise UnsupportedGroup("no built-in K-type table for group %r" % sc.group)
    if sc.basis != "final_tempered":
        raise ValueError("ktype_signature needs a final_tempered character")
    out = SignatureChar(sc.group, "ktype")
    for label, coef in sc.items():
        for n in support(label.param, cutoff):
            out.add(n, coef)
    return out
