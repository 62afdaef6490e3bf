"""Block data: parameters at one infinitesimal character, lengths,
orientation numbers, Bruhat order, and the multiplicity polynomial matrix Q,
plus built-in closed-form block generators for SL(2,R) and SL(2,C) and JSON
ingestion for everything else.

$Q_{\\Xi,\\Gamma}(q)$ records composition multiplicities of $J(\\Xi)$ in the
Jantzen layers of $I(\\Gamma)$; it is unitriangular in the length order, its
value at $q = 1$ is the multiplicity matrix $m$, and the signed inverse gives
the character polynomials $P$ with
$M = m^{-1}$, $M_{\\Gamma,\\Psi} = (-1)^{\\ell(\\Psi)-\\ell(\\Gamma)}
P_{\\Gamma,\\Psi}(1)$.

Kazhdan-Lusztig recursions are deliberately absent: built-in matrices come
from the classical composition series of the two rank-one models, everything
else is ingested from validated files.  A file holding several Q-support
components is split into separate blocks by the loader.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    InvariantViolation,
    MissingBlock,
    MissingTau,
    NotUpperTriangular,
    SchemaError,
    UnsupportedGroup,
)
from .intpoly import IntPoly, p_add, p_mul, p_neg, p_trim
from .params import (
    CartanClass,
    DiscreteParam,
    LanglandsParam,
    RestrictedRoot,
    frac_str,
    param_from_json,
    param_to_json,
    parse_frac,
)
from .rootdata import (
    Involution,
    RootDatum,
    classify_roots,
    length,
    orientation_number,
)

__all__ = [
    "BlockElement",
    "Block",
    "invert_multiplicity",
    "multiplicity_inverse",
    "bruhat_leq",
    "singular_restrict",
    "parse_block",
    "serialize_block",
    "split_components",
    "builtin_block",
    "BlockProvider",
    "SL2R_DATUM",
    "SL2R_COMPACT",
    "SL2R_SPLIT",
    "SL2C_DATUM",
    "SL2C_CARTAN",
    "sl2r_ps_param",
    "sl2r_ds_param",
    "sl2c_param",
    "element_label",
    "group_cartan",
]

# ---------------------------------------------------------------------------
# built-in root data and Cartan classes

SL2R_DATUM = RootDatum(rank=1, roots=((2,), (-2,)), coroots=((1,), (-1,)))

_THETA_PLUS = Involution(((1,),))
_THETA_MINUS = Involution(((-1,),))

SL2R_COMPACT = CartanClass(
    id="compact",
    theta=_THETA_PLUS,
    root_class=classify_roots(SL2R_DATUM, _THETA_PLUS),
    restricted=(),
)
SL2R_SPLIT = CartanClass(
    id="split",
    theta=_THETA_MINUS,
    root_class=classify_roots(SL2R_DATUM, _THETA_MINUS),
    restricted=(RestrictedRoot(covector=(Fraction(1),), kind="real", root_index=0),),
)

SL2C_DATUM = RootDatum(
    rank=2,
    roots=((2, 0), (-2, 0), (0, 2), (0, -2)),
    coroots=((1, 0), (-1, 0), (0, 1), (0, -1)),
)
_THETA_SWAP = Involution(((0, 1), (1, 0)))
SL2C_CARTAN = CartanClass(
    id="complex",
    theta=_THETA_SWAP,
    root_class=classify_roots(SL2C_DATUM, _THETA_SWAP),
    # alpha^vee = (1,0) splits as t-part (1/2,1/2) + a-part (1/2,-1/2);
    # pairing nu = (v/2,-v/2) against the full coroot already gives the
    # restricted level v/2, and ell_alpha = <dlambda, t-part> = m/2.
    restricted=(
        RestrictedRoot(
            covector=(Fraction(1), Fraction(0)),
            kind="complex",
            t_covector=(Fraction(1, 2), Fraction(1, 2)),
            root_index=0,
        ),
    ),
)

_CARTANS = {
    "sl2r": (SL2R_COMPACT, SL2R_SPLIT),
    "sl2c": (SL2C_CARTAN,),
}


def group_cartan(group: str, name: str) -> CartanClass:
    for c in _CARTANS.get(group, ()):
        if c.id == name:
            return c
    raise UnsupportedGroup("no Cartan %r in group %r" % (name, group))


def _cartan_index(group: str, name: str) -> int:
    for i, c in enumerate(_CARTANS.get(group, ())):
        if c.id == name:
            return i
    return 0


# ---------------------------------------------------------------------------
# built-in parameters

def sl2r_ps_param(eps: int, nu: Fraction) -> LanglandsParam:
    """Principal series parameter on the split Cartan; eps = 0 spherical
    (grading +1, final), eps = 1 nonspherical (grading -1, nonfinal)."""
    if eps not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    d = DiscreteParam(
        cartan="split",
        dlambda=(Fraction(0),),
        grading={0: 1 if eps == 0 else -1},
        final=(eps == 0),
        ktype_parity=(0 if eps == 0 else None),
    )
    g = LanglandsParam(d, (Fraction(nu),))
    if g.nu[0] != 0:
        g.validate_continuous(SL2R_SPLIT)
    # eps = 1 at nu = 0 is the formal limit standard I(Lambda_ns, 0); it is
    # not itself a parameter but rewrites to LDS+ + LDS- downstream
    return g


def sl2r_ds_param(sign: int, k: Fraction) -> LanglandsParam:
    """Discrete series (k >= 1) or limit (k = 0) parameter on the compact
    Cartan; sign picks the holomorphic (+1) or antiholomorphic (-1) ladder.

    The K-type parity bit distinguishes the two half-ladders in the odd
    sector: lowest K-type sign(k+1) positive gives 0, negative gives 1;
    even-sector lowest K-types always carry 0."""
    k = Fraction(k)
    if sign not in (1, -1) or k < 0 or k.denominator != 1:
        raise ValueError("discrete series needs sign +-1 and integer k >= 0")
    lowest = sign * (int(k) + 1)
    parity = 0 if lowest % 2 == 0 else (0 if lowest > 0 else 1)
    d = DiscreteParam(
        cartan="compact",
        dlambda=(sign * k,),
        grading={},
        imaginary_grading={0: "noncompact"},
        final=True,
        ktype_parity=parity,
    )
    return LanglandsParam(d, (Fraction(0),))


def sl2c_param(m: Fraction, v: Fraction) -> LanglandsParam:
    """SL(2,C) parameter (m, v): discrete weight m (a nonnegative integer),
    continuous coordinate v >= 0; dlambda = (m/2, m/2), nu = (v/2, -v/2)."""
    m, v = Fraction(m), Fraction(v)
    if m < 0 or m.denominator != 1:
        raise ValueError("sl2c discrete weight must be a nonnegative integer")
    d = DiscreteParam(
        cartan="complex",
        dlambda=(m / 2, m / 2),
        grading={},
        final=True,
        ktype_parity=None,
    )
    return LanglandsParam(d, (v / 2, -v / 2))


def element_label(group: str, param: LanglandsParam) -> str:
    """Deterministic display label derived from parameter data alone."""
    d = param.discrete
    if group == "sl2r":
        if d.cartan == "compact":
            k = d.dlambda[0]
            sign = "+" if (k > 0 or (k == 0 and d.ktype_parity == 0)) else "-"
            if k == 0:
                return "LDS%s" % sign
            return "DS%s(%s)" % (sign, frac_str(abs(k)))
        eps = "+" if d.grading.get(0, 1) == 1 else "-"
        return "PS%s(%s)" % (eps, frac_str(param.nu[0]))
    if group == "sl2c":
        m = d.dlambda[0] * 2
        v = param.nu[0] * 2
        return "PS(%s,%s)" % (frac_str(m), frac_str(v))
    return "elt"


# ---------------------------------------------------------------------------
# data structures

@dataclass(frozen=True)
class BlockElement:
    """One parameter in a block with its length, orientation number, and
    optional tau-invariant (ids of simple integral roots)."""

    id: int
    cartan: int
    length: int
    orient: int
    param: LanglandsParam
    tau: Optional[frozenset] = None
    label: str = ""

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.tau is not None:
            object.__setattr__(self, "tau", frozenset(int(x) for x in self.tau))


@dataclass(frozen=True, eq=False)
class Block:
    """Immutable block at one infinitesimal character.

    Q maps (row id, col id) to ascending integer coefficient tuples;
    absent entries are zero, diagonal entries are the constant 1."""

    group: str
    inf_char: Tuple[Fraction, ...]
    elements: Tuple[BlockElement, ...]
    Q: Mapping[Tuple[int, int], IntPoly] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "inf_char", tuple(Fraction(x) for x in self.inf_char))
        object.__setattr__(
            self,
            "Q",
            {
                (int(r), int(c)): p_trim(v)
                for (r, c), v in dict(self.Q).items()
                if p_trim(v)
            },
        )
        _validate_block(self)

    def ids(self) -> Tuple[int, ...]:
        return tuple(e.id for e in self.elements)

    def element(self, eid: int) -> BlockElement:
        for e in self.elements:
            if e.id == eid:
                return e
        raise KeyError("no element %d in block" % eid)

    def q_poly(self, row: int, col: int) -> IntPoly:
        if row == col:
            return (1,)
        return self.Q.get((row, col), ())

    def find(self, param: LanglandsParam) -> Optional[BlockElement]:
        for e in self.elements:
            if e.param == param:
                return e
        return None


def _validate_block(b: Block) -> None:
    seen = set()
    for e in b.elements:
        if e.id in seen:
            raise InvariantViolation("duplicate-id: element %d repeated" % e.id)
        seen.add(e.id)
    lengths = {e.id: e.length for e in b.elements}
    orients = [e.orient for e in b.elements]
    if orients and any((o - orients[0]) % 2 != 0 for o in orients):
        raise InvariantViolation(
            "orientation-parity: orientation numbers of a block must share "
            "one parity (got %s)" % (sorted(set(orients)),)
        )
    for (r, c), coeffs in b.Q.items():
        if r not in lengths or c not in lengths:
            raise InvariantViolation("unknown-element: Q entry (%d,%d)" % (r, c))
        if any(x < 0 for x in coeffs):
            raise InvariantViolation(
                "nonnegative-coefficients: Q[%d,%d] = %s" % (r, c, list(coeffs))
            )
        if r == c:
            if coeffs != (1,):
                raise InvariantViolation(
                    "diagonal-unit: Q[%d,%d] must be 1" % (r, c)
                )
            continue
        if lengths[r] >= lengths[c]:
            raise InvariantViolation(
                "triangularity: Q[%d,%d] nonzero needs length %d < %d"
                % (r, c, lengths[r], lengths[c])
            )
        # deg <= (l(col) - l(row) - 1)/2
        if 2 * (len(coeffs) - 1) > lengths[c] - lengths[r] - 1:
            raise InvariantViolation(
                "degree-bound: deg Q[%d,%d] = %d exceeds (%d - %d - 1)/2"
                % (r, c, len(coeffs) - 1, lengths[c], lengths[r])
            )


# ---------------------------------------------------------------------------
# operations

def _length_order(b: Block) -> List[int]:
    return [e.id for e in sorted(b.elements, key=lambda e: (e.length, e.id))]


def invert_multiplicity(b: Block) -> Dict[Tuple[int, int], IntPoly]:
    """Character polynomials P: the signed unitriangular inverse of Q.

    Returns P with $(-1)^{\\ell(\\Psi)-\\ell(\\Gamma)} P_{\\Gamma,\\Psi}$
    equal to $Q^{-1}$, so that the q = 1 specializations satisfy
    $\\sum_\\Gamma m_{\\Xi,\\Gamma} M_{\\Gamma,\\Psi} = \\delta_{\\Xi,\\Psi}$."""
    order = _length_order(b)
    lengths = {e.id: e.length for e in b.elements}
    for (r, c) in b.Q:
        if r != c and lengths[r] >= lengths[c]:
            raise NotUpperTriangular("Q[%d,%d] breaks the length order" % (r, c))
    n = len(order)
    X: Dict[Tuple[int, int], IntPoly] = {}
    for j in range(n):
        X[(order[j], order[j])] = (1,)
        for i in range(j - 1, -1, -1):
            acc: IntPoly = ()
            for k in range(i + 1, j + 1):
                q = b.q_poly(order[i], order[k])
                x = X.get((order[k], order[j]), ())
                if q and x:
                    acc = p_add(acc, p_mul(q, x))
            if acc:
                X[(order[i], order[j])] = p_neg(acc)
    P: Dict[Tuple[int, int], IntPoly] = {}
    for (r, c), v in X.items():
        sign = -1 if (lengths[c] - lengths[r]) % 2 else 1
        P[(r, c)] = tuple(sign * x for x in v)
    return P


def multiplicity_inverse(b: Block) -> Dict[Tuple[int, int], int]:
    """M = m^{-1} at q = 1: the integer character-formula matrix."""
    P = invert_multiplicity(b)
    lengths = {e.id: e.length for e in b.elements}
    out = {}
    for (r, c), v in P.items():
        sign = -1 if (lengths[c] - lengths[r]) % 2 else 1
        val = sign * sum(v)
        if val:
            out[(r, c)] = val
    return out


def bruhat_leq(b: Block, x: int, y: int) -> bool:
    """Reflexive-transitive closure of the relation {x < y : Q[x,y] != 0}."""
    if x == y:
        return True
    frontier = [x]
    seen = {x}
    while frontier:
        cur = frontier.pop()
        for (r, c) in b.Q:
            if r == cur and c not in seen:
                if c == y:
                    return True
                seen.add(c)
                frontier.append(c)
    return False


def singular_restrict(b: Block, singular_simples: Sequence[int]) -> Block:
    """Sub-block of elements whose tau-invariant avoids the singular simple
    roots; the Bruhat order and Q restrict from the regular block."""
    singular = frozenset(int(x) for x in singular_simples)
    for e in b.elements:
        if e.tau is None:
            raise MissingTau("element %d has no tau-invariant" % e.id)
    keep = [e for e in b.elements if not (e.tau & singular)]
    ids = {e.id for e in keep}
    Q = {k: v for k, v in b.Q.items() if k[0] in ids and k[1] in ids}
    return Block(group=b.group, inf_char=b.inf_char, elements=tuple(keep), Q=Q)


def split_components(b: Block) -> List[Block]:
    """Connected components of the Q-support graph as separate blocks."""
    parent = {e.id: e.id for e in b.elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (r, c) in b.Q:
        if r != c:
            parent[find(r)] = find(c)
    comps: Dict[int, List[BlockElement]] = {}
    for e in b.elements:
        comps.setdefault(find(e.id), []).append(e)
    out = []
    for elems in comps.values():
        ids = {e.id for e in elems}
        Q = {k: v for k, v in b.Q.items() if k[0] in ids and k[1] in ids}
        out.append(Block(group=b.group, inf_char=b.inf_char, elements=tuple(elems), Q=Q))
    out.sort(key=lambda blk: min(e.id for e in blk.elements))
    return out


# ---------------------------------------------------------------------------
# serialization

_INT_LIMIT = 2 ** 53


def _int_json(x: int) -> Union[int, str]:
    return x if abs(x) <= _INT_LIMIT else str(x)


def _int_parse(x) -> int:
    if isinstance(x, bool) or isinstance(x, float):
        raise SchemaError("integers must be JSON ints or decimal strings")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x, 10)
        except ValueError:
            raise SchemaError("bad integer literal %r" % x)
    raise SchemaError("bad integer value %r" % (x,))


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise SchemaError("%s must be a list" % what)
    return x


def _parse_param(raw) -> LanglandsParam:
    if not isinstance(raw, Mapping):
        raise SchemaError("param must be an object")
    dlambda = _json_list(raw.get("dlambda"), "param dlambda")
    nu = _json_list(raw.get("nu"), "param nu")
    if not dlambda or len(dlambda) != len(nu):
        raise SchemaError("param dlambda and nu need one equal, nonzero length")
    try:
        return param_from_json(raw)
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError("bad param: %s" % e)


def block_to_json_obj(b: Block) -> dict:
    elements = []
    for e in sorted(b.elements, key=lambda e: e.id):
        elements.append(
            {
                "id": e.id,
                "cartan": e.cartan,
                "length": e.length,
                "orient": e.orient,
                "tau": None if e.tau is None else sorted(e.tau),
                "param": param_to_json(e.param),
            }
        )
    qrows = []
    for (r, c) in sorted(b.Q):
        qrows.append(
            {"row": r, "col": c, "coeffs": [_int_json(x) for x in b.Q[(r, c)]]}
        )
    return {
        "group": b.group,
        "inf_char": [frac_str(x) for x in b.inf_char],
        "elements": elements,
        "Q": qrows,
    }


def serialize_block(b: Block) -> str:
    """Canonical byte-deterministic JSON rendering."""
    return json.dumps(block_to_json_obj(b), sort_keys=True, separators=(",", ":"))


def parse_block(data: Union[bytes, str, Mapping]) -> Block:
    """Parse and fully validate one block file.

    Raises SchemaError for structural problems and InvariantViolation (with
    the violated invariant named) for mathematical ones."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise SchemaError("not valid JSON: %s" % e)
    if not isinstance(data, Mapping):
        raise SchemaError("block file must be a JSON object")
    for key in ("group", "inf_char", "elements", "Q"):
        if key not in data:
            raise SchemaError("missing key %r" % key)
    group = data["group"]
    if not isinstance(group, str):
        raise SchemaError("group must be a string")
    try:
        inf_char = tuple(parse_frac(x) for x in _json_list(data["inf_char"], "inf_char"))
    except ValueError as e:
        raise SchemaError(str(e))
    elements = []
    for raw in _json_list(data["elements"], "elements"):
        if not isinstance(raw, Mapping):
            raise SchemaError("element entries must be objects")
        for key in ("id", "cartan", "length", "orient", "param"):
            if key not in raw:
                raise SchemaError("element missing key %r" % key)
        param = _parse_param(raw["param"])
        tau = raw.get("tau")
        try:
            elem = BlockElement(
                id=_int_parse(raw["id"]),
                cartan=_int_parse(raw["cartan"]),
                length=_int_parse(raw["length"]),
                orient=_int_parse(raw["orient"]),
                param=param,
                tau=None if tau is None else frozenset(
                    _int_parse(x) for x in _json_list(tau, "tau")),
                label=element_label(group, param),
            )
        except ValueError as e:
            raise SchemaError(str(e))
        elements.append(elem)
    Q = {}
    for raw in _json_list(data["Q"], "Q"):
        if not isinstance(raw, Mapping) or not {"row", "col", "coeffs"} <= set(raw):
            raise SchemaError("Q entries need row, col, coeffs")
        key = (_int_parse(raw["row"]), _int_parse(raw["col"]))
        if key in Q:
            raise SchemaError("duplicate Q entry %s" % (key,))
        Q[key] = tuple(_int_parse(x) for x in _json_list(raw["coeffs"], "coeffs"))
    return Block(group=group, inf_char=inf_char, elements=tuple(elements), Q=Q)


# ---------------------------------------------------------------------------
# built-in blocks

def _mk_elem(group: str, eid: int, param: LanglandsParam,
             tau: Optional[frozenset]) -> BlockElement:
    """Element with length and orientation number computed from the root
    datum rather than tabulated."""
    rd = SL2R_DATUM if group == "sl2r" else SL2C_DATUM
    cart = group_cartan(group, param.discrete.cartan)
    dgamma = tuple(a + b for a, b in zip(param.discrete.dlambda, param.nu))
    return BlockElement(
        id=eid,
        cartan=_cartan_index(group, param.discrete.cartan),
        length=length(rd, cart.theta, cart.root_class, dgamma),
        orient=orientation_number(
            rd, cart.theta, param.discrete.grading, param.discrete.dlambda,
            param.nu,
        ),
        param=param,
        tau=tau,
        label=element_label(group, param),
    )


def _singleton(group: str, eid: int, param: LanglandsParam, tau, inf_char) -> Block:
    return Block(
        group=group,
        inf_char=inf_char,
        elements=(_mk_elem(group, eid, param, tau),),
        Q={(eid, eid): (1,)},
    )


def builtin_block(group: str, inf_char) -> List[Block]:
    """The full partition of B(chi) into blocks at this infinitesimal
    character, with lengths, orientation numbers, tau-invariants and Q in
    closed form."""
    if group == "sl2r":
        if isinstance(inf_char, (tuple, list)):
            (k,) = inf_char
        else:
            k = inf_char
        k = abs(Fraction(k))
        ic = (k,)
        if k == 0:
            # singular point: the spherical principal series and the two
            # limits of discrete series are all irreducible
            return [
                _singleton("sl2r", 0, sl2r_ps_param(0, Fraction(0)),
                           frozenset(), ic),
                _singleton("sl2r", 1, sl2r_ds_param(1, Fraction(0)),
                           frozenset(), ic),
                _singleton("sl2r", 2, sl2r_ds_param(-1, Fraction(0)),
                           frozenset(), ic),
            ]
        if k.denominator == 1:
            # reducible parity: spherical at odd k, nonspherical at even k
            red_eps = 0 if int(k) % 2 == 1 else 1
            other_eps = 1 - red_eps
            chain = Block(
                group="sl2r",
                inf_char=ic,
                elements=(
                    _mk_elem("sl2r", 0, sl2r_ds_param(1, k), frozenset({0})),
                    _mk_elem("sl2r", 1, sl2r_ds_param(-1, k), frozenset({0})),
                    _mk_elem("sl2r", 2, sl2r_ps_param(red_eps, k), frozenset()),
                ),
                Q={
                    (0, 0): (1,),
                    (1, 1): (1,),
                    (2, 2): (1,),
                    (0, 2): (1,),
                    (1, 2): (1,),
                },
            )
            lone = _singleton("sl2r", 3, sl2r_ps_param(other_eps, k),
                              frozenset(), ic)
            return [chain, lone]
        # nonintegral: two irreducible principal series
        return [
            _singleton("sl2r", 0, sl2r_ps_param(0, k), frozenset(), ic),
            _singleton("sl2r", 1, sl2r_ps_param(1, k), frozenset(), ic),
        ]

    if group == "sl2c":
        a, b = ic = _canon_key(group, inf_char)
        if (
            a.denominator == 1
            and b.denominator == 1
            and a > b
            and (a - b) % 2 == 0
        ):
            # one 2-chain: I(b, a) has the J(a, b) constituent below
            return [
                Block(
                    group="sl2c",
                    inf_char=ic,
                    elements=(
                        _mk_elem("sl2c", 0, sl2c_param(a, b), frozenset()),
                        _mk_elem("sl2c", 1, sl2c_param(b, a), frozenset({0})),
                    ),
                    Q={(0, 0): (1,), (1, 1): (1,), (0, 1): (1,)},
                )
            ]
        out = []
        coords = [(a, b)] if a.denominator == 1 else []
        if b.denominator == 1 and b != a:
            coords.append((b, a))
        if not coords:
            raise ValueError("no sl2c parameter: neither coordinate is an integer")
        for i, (mm, vv) in enumerate(coords):
            out.append(
                _singleton("sl2c", i, sl2c_param(mm, vv), frozenset(), ic)
            )
        return out

    raise UnsupportedGroup("no built-in model for group %r" % group)


# ---------------------------------------------------------------------------
# provider

def _canon_key(group: str, inf_char) -> Tuple[Fraction, ...]:
    if not isinstance(inf_char, (tuple, list)):
        inf_char = (inf_char,)
    return tuple(sorted((abs(Fraction(x)) for x in inf_char), reverse=True))


class BlockProvider:
    """Lookup of the block partition keyed by (group, infinitesimal
    character).  Registered libraries win; built-in groups resolve
    analytically; a miss is a hard MissingBlock error.

    The provider owns every cache derived from its blocks, each one empty
    when the provider is created and private to it: the built-in partitions
    it has served, the $(Q^c)^{-1}$ of each block (keyed by the Block
    object), and the results of ``deform_to_zero``.  ``register`` empties
    all three, so no answer depends on what was asked before a library
    arrived.  The caches are plain dicts without a lock: two threads
    sharing a provider can at worst compute the same value twice."""

    def __init__(self):
        self._store: Dict[Tuple[str, Tuple[Fraction, ...]], List[Block]] = {}
        self._builtin: Dict[Tuple[str, Tuple[Fraction, ...]], List[Block]] = {}
        self._inverses: Dict[Block, object] = {}
        self._deformations: Dict[tuple, object] = {}

    def register(self, blocks: Sequence[Block]) -> None:
        if not blocks:
            return
        group = blocks[0].group
        key = (group, _canon_key(group, blocks[0].inf_char))
        if key in self._store:
            raise ValueError(
                "duplicate block library for %s at %s"
                % (group, [frac_str(x) for x in key[1]])
            )
        self._store[key] = list(blocks)
        self._builtin.clear()
        self._inverses.clear()
        self._deformations.clear()

    def keys(self):
        return sorted(self._store, key=lambda k: (k[0], k[1]))

    def get(self, group: str, inf_char) -> List[Block]:
        key = (group, _canon_key(group, inf_char))
        if key in self._store:
            return self._store[key]
        if group in _CARTANS:
            blocks = self._builtin.get(key)
            if blocks is None:
                blocks = self._builtin[key] = builtin_block(group, inf_char)
            return blocks
        raise MissingBlock(
            "no block data for group %r at infinitesimal character %s"
            % (group, [frac_str(x) for x in _canon_key(group, inf_char)])
        )

    def inverse(self, b: Block, compute: Callable[[Block], object]):
        """The $(Q^c)^{-1}$ of a block this provider served, computed by
        ``compute`` on first use."""
        inv = self._inverses.get(b)
        if inv is None:
            inv = self._inverses[b] = compute(b)
        return inv

    def deformation(self, key: tuple):
        """A remembered ``deform_to_zero`` result, or None."""
        return self._deformations.get(key)

    def remember_deformation(self, key: tuple, value) -> None:
        self._deformations[key] = value
