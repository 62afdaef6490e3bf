"""Langlands parameters, deformation data, and the hyperplane arrangement.

A parameter $\\Gamma = (\\Lambda, \\nu)$ is carried abstractly: a discrete
part (Cartan class, differential $d\\lambda$, $\\mathbb{Z}/2$ grading on real
coroots, finality flag, optional K-type parity bit) plus an exact rational
continuous part $\\nu$.  An imaginary component nu_im can be written down
and round-trips through JSON, but the engine takes real parameters only:
an all-zero nu_im is stored as None, and deform_to_zero and unitary_test
reject a nonzero one.  No representation is ever realized; everything
downstream consumes pairings, gradings, lengths and block data.

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

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from heapq import merge
from itertools import groupby
from types import MappingProxyType
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import SchemaError
from .rootdata import Involution, RootClass, _norm_sq_parts, _vec, dot, parse_frac

__all__ = [
    "CartanClass",
    "RestrictedRoot",
    "DiscreteParam",
    "LanglandsParam",
    "Hyperplane",
    "hyperplanes",
    "crossing_times",
    "frac_str",
    "parse_frac",
    "decode_json",
    "canonical_json",
    "param_to_json",
    "param_from_json",
]

def decode_json(data):
    """data as a JSON value: bytes are decoded as UTF-8 and text parsed;
    anything else is taken as already decoded.  Raises SchemaError."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        if isinstance(data, str):
            data = json.loads(data)
    except (ValueError, RecursionError) as e:
        # bad UTF-8, JSONDecodeError, an over-long integer literal, or
        # arrays nested deeper than the decoder's recursion limit
        raise SchemaError("not valid JSON: %s" % e)
    return data


def canonical_json(obj) -> str:
    """The byte-deterministic JSON text of obj: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def frac_str(x: Fraction) -> str:
    """Canonical rendering: lowest terms, '/' only when the denominator is
    not 1; x is read by ``parse_frac``."""
    return str(x if type(x) is Fraction else parse_frac(x))


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
        object.__setattr__(self, "covector", _vec(self.covector))
        if self.t_covector is not None:
            object.__setattr__(self, "t_covector", _vec(self.t_covector))
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
    and the restricted roots of the split part (empty for a compact
    Cartan)."""

    id: str
    theta: Involution
    root_class: RootClass
    restricted: Tuple[RestrictedRoot, ...]


_set = object.__setattr__


@dataclass(frozen=True, init=False)
class DiscreteParam:
    """Discrete part Lambda: Cartan class id, d lambda, gradings, finality,
    and the optional K-type parity bit epsilon.

    The one ``__init__`` checks the values and sets each attribute once:
    ``dlambda`` as a tuple of Fractions, ``grading`` as a dict of its own,
    ``dlambda_sq``, $|d\\lambda|^2$ as (numerator, denominator) integers
    for the recursion bound, and the hash.  ``args()`` gives the arguments
    that rebuild it, in the order its fields are compared."""

    cartan: str
    dlambda: Tuple[Fraction, ...]
    grading: Mapping[int, int]
    imaginary_grading: Optional[Mapping[int, str]]
    final: bool
    ktype_parity: Optional[int]

    def __init__(self, cartan: str, dlambda: Sequence,
                 grading: Mapping[int, int] = MappingProxyType({}),
                 imaginary_grading: Optional[Mapping[int, str]] = None,
                 final: bool = True, ktype_parity: Optional[int] = None):
        dl, grading = _vec(dlambda), dict(grading)
        for i, g in grading.items():
            if type(g) is not int or g not in (1, -1):
                raise ValueError("grading values must be +-1 (root %d)" % i)
        if type(final) is not bool:
            raise ValueError("final must be a boolean (got %r)" % (final,))
        if final and -1 in grading.values():
            raise ValueError("final discrete parameter must have grading +1 "
                             "on every real root")
        if ktype_parity is not None and (type(ktype_parity) is not int
                                         or ktype_parity not in (0, 1)):
            raise ValueError("ktype_parity must be 0, 1, or None")
        _set(self, "cartan", cartan)
        _set(self, "dlambda", dl)
        _set(self, "grading", grading)
        _set(self, "imaginary_grading", imaginary_grading)
        _set(self, "final", final)
        _set(self, "ktype_parity", ktype_parity)
        _set(self, "dlambda_sq", _norm_sq_parts(dl))
        _set(self, "_hash", hash((
            cartan, dl, tuple(sorted(grading.items())), final, ktype_parity)))

    def __hash__(self) -> int:
        return self._hash

    def args(self) -> tuple:
        """The arguments that rebuild this discrete part, which equal those
        of another exactly when the two parts are equal."""
        return (self.cartan, self.dlambda, self.grading, self.imaginary_grading,
                self.final, self.ktype_parity)

    def __reduce__(self):  # rebuild when unpickled: string hashes vary by process
        return DiscreteParam, self.args()


@dataclass(frozen=True, init=False)
class LanglandsParam:
    """Full parameter (Lambda, nu), nu exact rational, optionally with an
    imaginary part nu_im; an all-zero nu_im is stored as None, so a real
    parameter has one representation.  The one ``__init__`` checks the
    vector lengths and sets each attribute once: ``nu`` as a tuple of
    Fractions and the hash.  The infinitesimal character ``gamma`` is
    computed where it is read."""

    discrete: DiscreteParam
    nu: Tuple[Fraction, ...]
    nu_im: Optional[Tuple[Fraction, ...]]

    def __init__(self, discrete: DiscreteParam, nu: Sequence,
                 nu_im: Optional[Sequence] = None):
        nu, dl = _vec(nu), discrete.dlambda
        if len(nu) != len(dl):
            raise ValueError("dlambda and nu need one length")
        if nu_im is not None:
            nu_im = _vec(nu_im)
            if len(nu_im) != len(nu):
                raise ValueError("nu_im and nu need one length")
            if not any(nu_im):
                nu_im = None
        _set(self, "discrete", discrete)
        _set(self, "nu", nu)
        _set(self, "nu_im", nu_im)
        # hashed once: parameters key the memo and every signature term
        _set(self, "_hash", hash((discrete, nu, nu_im)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuild when unpickled: string hashes vary by process
        return LanglandsParam, (self.discrete, self.nu, self.nu_im)

    @property
    def gamma(self) -> Tuple[Fraction, ...]:
        """The infinitesimal character $d\\lambda + \\nu$: ``nu`` itself
        when $d\\lambda = 0$, ``dlambda`` itself when $\\nu = 0$."""
        nu, dl = self.nu, self.discrete.dlambda
        return nu if not any(dl) else dl if not any(nu) else tuple(
            a + b for a, b in zip(dl, nu))

    def is_real(self) -> bool:
        return self.nu_im is None


@dataclass(frozen=True)
class Hyperplane:
    """A wall <nu, phi^vee> = level of the arrangement."""

    phi_covector: Tuple[Fraction, ...]
    level: Fraction
    kind: str  # "reducibility" | "reorient_positive", as ``_walls`` yields them


def _walls(rr: RestrictedRoot, d: DiscreteParam, bound,
           reducible_only: bool = False) -> Iterator[Tuple[Fraction, str]]:
    """The walls (level, kind) of one restricted root with
    0 < level <= bound, in increasing level; with ``reducible_only``, the
    reducibility walls alone.

    A real root has every integer level: parity opposite to the grading
    gives reducibility, the same parity a positively reorienting wall.  A
    complex root has reducibility levels q = n - ell_alpha for the integers
    n > |ell_alpha|."""
    if rr.kind == "real":
        # grading +1 pairs with even integer parts, so reducibility sits at
        # odd levels; grading -1 swaps the parities.
        red_parity = 1 if d.grading.get(rr.root_index, 1) == 1 else 0
        top = math.floor(bound)
        # the reducibility levels alone start at the first level of their
        # parity and step over the reorienting ones
        levels = range(2 - red_parity, top + 1, 2) if reducible_only else range(1, top + 1)
        for n in levels:
            yield (Fraction(n),
                   "reducibility" if n % 2 == red_parity else "reorient_positive")
    else:
        la = rr.ell_alpha(d.dlambda)
        q = int(abs(la)) + 1 - la
        while q <= bound:
            yield q, "reducibility"
            q += 1


def hyperplanes(
    d: DiscreteParam, cartan: CartanClass, radius
) -> List[Hyperplane]:
    """All potential reducibility and reorienting walls with
    0 < level <= radius, sorted by level; radius is read by ``parse_frac``."""
    radius = parse_frac(radius)
    walls = [
        Hyperplane(rr.covector, level, kind)
        for rr in cartan.restricted
        for level, kind in _walls(rr, d, radius)
    ]
    walls.sort(key=lambda h: (h.level, h.kind, h.phi_covector))
    return walls


def crossing_times(g: LanglandsParam, cartan: CartanClass) -> List[Fraction]:
    """Times 0 < t <= 1 at which the line t nu meets a reducibility wall,
    deduplicated and sorted descending.

    A root meets its walls at t = level / <nu, phi^vee>, so only the walls
    with level <= <nu, phi^vee> count; nu = 0 meets none.  Each root's
    levels come out increasing and distinct, so its times do too: the
    roots' times are merged and equal neighbours dropped."""
    per_root = []
    for rr in cartan.restricted:
        x = dot(g.nu, rr.covector)
        per_root.append([level / x for level, _ in _walls(rr, g.discrete, x, True)])
    times = [t for t, _ in groupby(merge(*per_root))]
    times.reverse()
    return times


def _walls_below(g: LanglandsParam, cartan: CartanClass) -> int:
    """The number of g's crossing times below 1 in rank one, none of them
    built: the reducibility levels below x = <nu, phi^vee> run from the
    first level of ``_walls`` in steps of 2 for a real root, 1 for a complex."""
    (rr,) = cartan.restricted
    x = dot(g.nu, rr.covector)
    first = next((level for level, _ in _walls(rr, g.discrete, x, True)), x)
    return -((first - x) // (2 if rr.kind == "real" else 1))


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
    """Inverse of param_to_json.  It checks only the JSON shapes it converts
    and passes each value on as it is; DiscreteParam and LanglandsParam
    check the values."""
    cartan, ig = data["cartan"], data.get("imaginary_grading")
    grading = data.get("grading", {})
    final, parity = data.get("final", True), data.get("ktype_parity")
    dlambda, nu, nu_im = data.get("dlambda"), data.get("nu"), data.get("nu_im")
    if not isinstance(cartan, str):
        raise ValueError("cartan must be a JSON string (got %r)" % (cartan,))
    for name, v in (("dlambda", dlambda), ("nu", nu)):
        if not (isinstance(v, list) and v):
            raise ValueError("%s must be a nonempty JSON list (got %r)" % (name, v))
    if nu_im is not None and not isinstance(nu_im, list):
        raise ValueError("nu_im must be null or a JSON list (got %r)" % (nu_im,))
    if not isinstance(grading, Mapping):
        raise ValueError("grading must be an object with the JSON integers 1 or -1")
    if ig is not None and not (isinstance(ig, Mapping)
                               and all(isinstance(v, str) for v in ig.values())):
        raise ValueError("imaginary_grading must be null or an object of strings")
    for i in (*grading, *(ig or ())):
        if not (isinstance(i, str) and i.isdecimal() and i == str(int(i))):
            raise ValueError("grading keys must be root indices in plain decimal (got %r)" % (i,))
    d = DiscreteParam(
        cartan=cartan,
        dlambda=dlambda,
        grading={int(i): v for i, v in grading.items()},
        imaginary_grading=None if ig is None else {int(i): v for i, v in ig.items()},
        final=final,
        ktype_parity=parity,
    )
    return LanglandsParam(
        discrete=d,
        nu=nu,
        nu_im=nu_im,
    )
