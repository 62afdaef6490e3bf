"""Langlands parameters, their duals, deformation data, and the hyperplane
arrangement.

A parameter $\\Gamma = (\\Lambda, \\nu)$ is carried abstractly: a discrete
part (Cartan class, differential $d\\lambda$, $\\mathbb{Z}/2$ grading on real
coroots, finality flag, optional K-type parity bit) plus an exact rational
continuous part $\\nu$ (with an optional imaginary component used only for
the reduction to real infinitesimal character).  No representation is ever
realized; everything downstream consumes pairings, gradings, lengths and
block data.

The deformation path is the straight line $t\\nu$, $t \\in [0,1]$.  Its
combinatorial skeleton is the arrangement of potential reducibility and
reorienting hyperplanes $\\langle\\nu, \\varphi^\\vee\\rangle = q$ attached
to the restricted roots of the Cartan: a real restricted root contributes
integer levels, reducible at the parity opposite to its grading and
reorienting at the same parity; a complex restricted root contributes levels
$q = n - \\ell_\\alpha$ with $n > |\\ell_\\alpha|$.  No hyperplane passes
through the origin, so signatures are constant near $\\nu = 0$.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence, Tuple

from .errors import GroupTooLarge, MissingRootData
from .rootdata import Involution, RootClass, dot

__all__ = [
    "CartanClass",
    "RestrictedRoot",
    "DiscreteParam",
    "LanglandsParam",
    "Hyperplane",
    "hermitian_dual",
    "c_hermitian_dual",
    "hermitian_exists",
    "reduce_to_real",
    "hyperplanes",
    "crossing_times",
    "frac_str",
    "parse_frac",
    "param_to_json",
    "param_from_json",
]

_FRAC_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_frac(text) -> Fraction:
    """Parse an exact rational from 'p', 'p/q', or an int; floats rejected."""
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str) or not _FRAC_RE.match(text.strip()):
        raise ValueError("not an exact rational: %r" % (text,))
    return Fraction(text.strip())


def frac_str(x: Fraction) -> str:
    """Canonical rendering: lowest terms, '/' only when the denominator is
    not 1."""
    return str(Fraction(x))


@dataclass(frozen=True)
class RestrictedRoot:
    """Restriction of a root (class) to the split part a of a Cartan.

    covector is the a-part of alpha^vee and pairs with nu by the dot
    product; t_covector is the t-part, whose pairing with d lambda is the
    shift $\\ell_\\alpha$ of complex restricted roots; root_index points
    back into the ambient root list for grading lookups.
    """

    covector: Tuple[Fraction, ...]
    kind: str  # "real" | "complex"
    t_covector: Optional[Tuple[Fraction, ...]] = None
    root_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "covector", tuple(Fraction(x) for x in self.covector))
        if self.t_covector is not None:
            object.__setattr__(
                self, "t_covector", tuple(Fraction(x) for x in self.t_covector)
            )
        if self.kind not in ("real", "complex"):
            raise ValueError("restricted root kind must be real or complex")
        if all(x == 0 for x in self.covector):
            raise ValueError("restricted root covector must be nonzero")

    def ell_alpha(self, dlambda: Sequence) -> Fraction:
        if self.t_covector is None:
            return Fraction(0)
        return dot(dlambda, self.t_covector)


@dataclass(frozen=True)
class CartanClass:
    """theta-stable Cartan data: the involution, the root classification,
    and the restricted roots of the split part (None when unavailable)."""

    id: str
    theta: Involution
    root_class: RootClass
    restricted: Optional[Tuple[RestrictedRoot, ...]] = None


@dataclass(frozen=True)
class DiscreteParam:
    """Discrete part Lambda: Cartan class id, d lambda, gradings, finality,
    and the optional K-type parity bit epsilon."""

    cartan: str
    dlambda: Tuple[Fraction, ...]
    grading: Mapping[int, int] = field(default_factory=dict)
    imaginary_grading: Optional[Mapping[int, str]] = None
    final: bool = True
    ktype_parity: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "dlambda", tuple(Fraction(x) for x in self.dlambda))
        object.__setattr__(self, "grading", dict(self.grading))
        for i, g in self.grading.items():
            if g not in (1, -1):
                raise ValueError("grading values must be +-1 (root %d)" % i)
        if self.final and any(g == -1 for g in self.grading.values()):
            raise ValueError("final discrete parameter must have grading +1 "
                             "on every real root")
        if self.ktype_parity not in (None, 0, 1):
            raise ValueError("ktype_parity must be 0, 1, or None")

    def __hash__(self) -> int:
        return hash((self.cartan, self.dlambda, tuple(sorted(self.grading.items())),
                     self.final, self.ktype_parity))


@dataclass(frozen=True)
class LanglandsParam:
    """Full parameter (Lambda, nu), nu exact rational, optionally with an
    imaginary part nu_im kept only for the reduction step."""

    discrete: DiscreteParam
    nu: Tuple[Fraction, ...]
    nu_im: Optional[Tuple[Fraction, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "nu", tuple(Fraction(x) for x in self.nu))
        if self.nu_im is not None:
            object.__setattr__(self, "nu_im", tuple(Fraction(x) for x in self.nu_im))
        # hashed once: parameters key the memo and every signature term
        object.__setattr__(self, "_hash", hash((self.discrete, self.nu, self.nu_im)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuild when unpickled: string hashes vary by process
        return LanglandsParam, (self.discrete, self.nu, self.nu_im)

    def is_real(self) -> bool:
        return self.nu_im is None or all(x == 0 for x in self.nu_im)

    def validate_continuous(self, cartan: CartanClass) -> None:
        """nu must avoid the kernel walls of odd real coroots; in particular
        nu = 0 is admissible exactly for final Lambda."""
        if cartan.restricted is None:
            return
        for rr in cartan.restricted:
            if rr.kind != "real":
                continue
            if self.discrete.grading.get(rr.root_index, 1) == -1:
                if dot(self.nu, rr.covector) == 0:
                    raise ValueError(
                        "nu vanishes on an odd real coroot; (Lambda, nu) "
                        "is not a Langlands parameter"
                    )


@dataclass(frozen=True)
class Hyperplane:
    """A wall <nu, phi^vee> = level of the arrangement."""

    phi_covector: Tuple[Fraction, ...]
    level: Fraction
    kind: str  # "reducibility" | "reorient_positive" | "reorient_negative"

    def __post_init__(self):
        object.__setattr__(self, "phi_covector", tuple(Fraction(x) for x in self.phi_covector))
        object.__setattr__(self, "level", Fraction(self.level))
        if self.kind not in ("reducibility", "reorient_positive", "reorient_negative"):
            raise ValueError("unknown hyperplane kind %r" % self.kind)
        if self.level <= 0:
            raise ValueError("hyperplane level must be strictly positive")


def hermitian_dual(g: LanglandsParam) -> LanglandsParam:
    """$(\\Lambda, -\\bar\\nu)$: negate the real part, keep the imaginary."""
    return LanglandsParam(g.discrete, tuple(-x for x in g.nu), g.nu_im)


def c_hermitian_dual(g: LanglandsParam) -> LanglandsParam:
    """$(\\Lambda, \\bar\\nu)$: identity on real continuous parameters."""
    nu_im = None if g.nu_im is None else tuple(-x for x in g.nu_im)
    return LanglandsParam(g.discrete, g.nu, nu_im)


Matrix = Tuple[Tuple[Fraction, ...], ...]


def _mat(m: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in m)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def _mat_apply(a: Matrix, v: Sequence) -> Tuple[Fraction, ...]:
    return tuple(
        sum((a[i][j] * Fraction(v[j]) for j in range(len(v))), Fraction(0))
        for i in range(len(a))
    )


def hermitian_exists(
    g: LanglandsParam,
    weyl_gens: Sequence[Sequence[Sequence]],
    bound: int = 20000,
) -> bool:
    """Whether some w in the group generated by weyl_gens sends nu to
    $-\\bar\\nu$, i.e. w nu_re = -nu_re and w nu_im = nu_im.

    The group is enumerated by closure; desk-scale orders only."""
    n = len(g.nu)
    identity = _mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])
    gens = [_mat(m) for m in weyl_gens]
    group = {identity}
    frontier = [identity]
    while frontier:
        new: List[Matrix] = []
        for w in frontier:
            for s in gens:
                ws = _mat_mul(w, s)
                if ws not in group:
                    group.add(ws)
                    new.append(ws)
                    if len(group) > bound:
                        raise GroupTooLarge("closure exceeded %d elements" % bound)
        frontier = new

    nu_re = g.nu
    nu_im = g.nu_im if g.nu_im is not None else tuple(Fraction(0) for _ in range(n))
    target_re = tuple(-x for x in nu_re)
    for w in group:
        if _mat_apply(w, nu_re) == target_re and _mat_apply(w, nu_im) == nu_im:
            return True
    return False


def reduce_to_real(
    g: LanglandsParam, coroots: Sequence[Sequence] = ()
) -> Tuple[Tuple[int, ...], LanglandsParam]:
    """Reduction to real infinitesimal character.

    Returns the indices of coroots vanishing on nu_im (they cut out the Levi
    L_im) together with the parameter (Lambda, nu_re) for that Levi;
    unitarity of g is equivalent to unitarity of the reduced parameter."""
    reduced = LanglandsParam(g.discrete, g.nu, None)
    if g.is_real():
        return tuple(range(len(coroots))), reduced
    levi = tuple(
        i for i, av in enumerate(coroots) if dot(g.nu_im, av) == 0
    )
    return levi, reduced


def hyperplanes(
    d: DiscreteParam, cartan: CartanClass, radius
) -> List[Hyperplane]:
    """All potential reducibility and reorienting walls with level bounded
    by radius.

    Real restricted roots contribute integer levels n <= radius: parity
    opposite to the grading gives reducibility, the same parity gives
    positively reorienting walls.  Complex restricted roots contribute
    reducibility levels q = n - ell_alpha < radius for integers
    n > |ell_alpha|."""
    if cartan.restricted is None:
        raise MissingRootData("CartanClass %r carries no restricted-root data"
                              % cartan.id)
    radius = Fraction(radius)
    walls: List[Hyperplane] = []
    for rr in cartan.restricted:
        if rr.kind == "real":
            g = d.grading.get(rr.root_index, 1)
            # grading +1 pairs with even integer parts, so reducibility
            # sits at odd levels; grading -1 swaps the parities.
            red_parity = 1 if g == 1 else 0
            n = 1
            while Fraction(n) <= radius:
                kind = "reducibility" if n % 2 == red_parity else "reorient_positive"
                walls.append(Hyperplane(rr.covector, Fraction(n), kind))
                n += 1
        else:
            la = rr.ell_alpha(d.dlambda)
            # integers n with n > |ell_alpha|
            n = int(abs(la)) + 1
            while True:
                q = Fraction(n) - la
                if q >= radius:
                    break
                if q > 0:
                    walls.append(Hyperplane(rr.covector, q, "reducibility"))
                n += 1
    walls.sort(key=lambda h: (h.level, h.kind, h.phi_covector))
    return walls


def crossing_times(g: LanglandsParam, cartan: CartanClass) -> List[Fraction]:
    """Times 0 < t <= 1 at which the line t nu meets a reducibility wall,
    deduplicated and sorted descending.

    nu = 0 yields the empty list by convention (no walls pass through the
    origin, so the statement is consistent)."""
    if cartan.restricted is None:
        raise MissingRootData("CartanClass %r carries no restricted-root data"
                              % cartan.id)
    if all(x == 0 for x in g.nu):
        return []
    times = set()
    for rr in cartan.restricted:
        x = dot(g.nu, rr.covector)
        if x <= 0:
            continue
        if rr.kind == "real":
            gr = g.discrete.grading.get(rr.root_index, 1)
            red_parity = 1 if gr == 1 else 0
            n = 1
            while Fraction(n) <= x:
                if n % 2 == red_parity:
                    times.add(Fraction(n) / x)
                n += 1
        else:
            la = rr.ell_alpha(g.discrete.dlambda)
            n = int(abs(la)) + 1
            while True:
                q = Fraction(n) - la
                if q > x:
                    break
                if q > 0:
                    times.add(q / x)
                n += 1
    return sorted(times, reverse=True)


def param_to_json(g: LanglandsParam) -> dict:
    d = g.discrete
    return {
        "cartan": d.cartan,
        "dlambda": [frac_str(x) for x in d.dlambda],
        "grading": {str(i): v for i, v in sorted(d.grading.items())},
        "imaginary_grading": None
        if d.imaginary_grading is None
        else {str(i): v for i, v in sorted(d.imaginary_grading.items())},
        "final": d.final,
        "ktype_parity": d.ktype_parity,
        "nu": [frac_str(x) for x in g.nu],
        "nu_im": None if g.nu_im is None else [frac_str(x) for x in g.nu_im],
    }


def param_from_json(data: Mapping) -> LanglandsParam:
    ig = data.get("imaginary_grading")
    d = DiscreteParam(
        cartan=str(data["cartan"]),
        dlambda=tuple(parse_frac(x) for x in data["dlambda"]),
        grading={int(i): int(v) for i, v in dict(data.get("grading", {})).items()},
        imaginary_grading=None
        if ig is None
        else {int(i): str(v) for i, v in dict(ig).items()},
        final=bool(data.get("final", True)),
        ktype_parity=data.get("ktype_parity"),
    )
    nu_im = data.get("nu_im")
    return LanglandsParam(
        discrete=d,
        nu=tuple(parse_frac(x) for x in data["nu"]),
        nu_im=None if nu_im is None else tuple(parse_frac(x) for x in nu_im),
    )
