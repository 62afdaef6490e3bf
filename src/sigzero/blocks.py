"""Block data: parameters at one infinitesimal character, lengths,
orientation numbers and the multiplicity polynomial matrix Q, plus the group
models SL2R and SL2C, which generate their blocks in closed form, and JSON
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

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    InvariantViolation,
    MissingBlock,
    MissingRewriteTable,
    NonIntegerData,
    SchemaError,
    UnsupportedGroup,
    ValidationError,
)
from .intpoly import IntPoly, p_pack, p_slot_bits, p_trim, p_unpack
from .params import (
    CartanClass,
    DiscreteParam,
    LanglandsParam,
    RestrictedRoot,
    _walls,
    canonical_json,
    decode_json,
    frac_str,
    param_from_json,
    param_to_json,
    parse_frac,
)
from .rootdata import (
    Involution,
    RootDatum,
    _vec,
    classify_roots,
    dot,
    length,
    orientation_number,
)

__all__ = [
    "BlockElement",
    "Block",
    "invert_multiplicity",
    "parse_block",
    "serialize_block",
    "block_to_json_obj",
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
    "GroupModel",
    "SL2R",
    "SL2C",
    "group_model",
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

# ---------------------------------------------------------------------------
# built-in parameters

_ZERO = Fraction(0)


# the arguments of the discrete parts of the spherical (eps = 0: grading +1,
# final) and the nonspherical (eps = 1: grading -1, nonfinal) principal
# series, and the parts themselves, which every such parameter shares
_SPLIT_ARGS = tuple(("split", (_ZERO,), {0: 1 if eps == 0 else -1}, None, eps == 0,
                     0 if eps == 0 else None) for eps in (0, 1))
_SPLIT_DISCRETE = tuple(DiscreteParam(*args) for args in _SPLIT_ARGS)
_ZERO_NU = (_ZERO,)


def sl2r_ps_param(eps: int, nu: Fraction) -> LanglandsParam:
    """Principal series parameter on the split Cartan; eps = 0 spherical
    (grading +1, final), eps = 1 nonspherical (grading -1, nonfinal), and
    nu >= 0."""
    if type(eps) is not int or eps not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    nu = parse_frac(nu)
    if nu < 0:
        raise ValueError("principal series needs nu >= 0 (got %s)" % frac_str(nu))
    # nu > 0 avoids the kernel wall of the one real coroot; eps = 1 at
    # nu = 0 is the formal limit standard I(Lambda_ns, 0), not itself a
    # parameter, which rewrites to LDS+ + LDS- downstream
    return LanglandsParam(_SPLIT_DISCRETE[eps], (nu,))


def _compact_args(sign: int, k: Fraction) -> tuple:
    """The arguments of the discrete part of ``sl2r_ds_param(sign, k)``."""
    lowest = sign * (k.numerator + 1)
    parity = 0 if lowest % 2 == 0 else (0 if lowest > 0 else 1)
    return ("compact", (k if sign == 1 else -k,), {}, {0: "noncompact"}, True, parity)


def sl2r_ds_param(sign: int, k: Fraction) -> LanglandsParam:
    """Discrete series (k >= 1) or limit (k = 0) parameter on the compact
    Cartan; sign picks the holomorphic (+1) or antiholomorphic (-1) ladder.

    The K-type parity bit distinguishes the two half-ladders in the odd
    sector: lowest K-type sign(k+1) positive gives 0, negative gives 1;
    even-sector lowest K-types always carry 0."""
    k = parse_frac(k)
    if (type(sign) is not int or sign not in (1, -1)
            or k.numerator < 0 or k.denominator != 1):
        raise ValueError("discrete series needs sign +-1 and integer k >= 0")
    return LanglandsParam(DiscreteParam(*_compact_args(sign, k)), _ZERO_NU)


def _complex_args(half_m: Fraction) -> tuple:
    """The arguments of the discrete part of ``sl2c_param(m, v)``, from
    m/2."""
    return ("complex", (half_m, half_m), {}, None, True, None)


def sl2c_param(m: Fraction, v: Fraction) -> LanglandsParam:
    """SL(2,C) parameter (m, v): discrete weight m (a nonnegative integer),
    continuous coordinate v >= 0; dlambda = (m/2, m/2), nu = (v/2, -v/2)."""
    m, v = parse_frac(m), parse_frac(v)
    if m < 0 or m.denominator != 1:
        raise ValueError("sl2c discrete weight must be a nonnegative integer")
    if v < 0:
        raise ValueError("sl2c continuous coordinate needs v >= 0 (got %s)" % frac_str(v))
    half_v = v / 2
    return LanglandsParam(DiscreteParam(*_complex_args(m / 2)), (half_v, -half_v))


# ---------------------------------------------------------------------------
# data structures

@dataclass(frozen=True)
class BlockElement:
    """One parameter in a block with its length, orientation number, and
    optional tau-invariant (ids of simple integral roots).  It checks
    nothing itself (``_validate_block`` checks a whole block)."""

    id: int
    cartan: int
    length: int
    orient: int
    param: LanglandsParam
    tau: Optional[frozenset] = None


@dataclass(frozen=True, eq=False)
class Block:
    """Immutable block at one infinitesimal character.

    Q maps (row id, col id) to ascending integer coefficient tuples;
    absent entries are zero, diagonal entries are the constant 1.  A block
    is validated once per shape, in ``__post_init__``, against every named
    invariant of ``_validate_block``; a block derived from validated facts
    (``_derived``: a built-in block instantiated from a known shape, a
    component split from a validated block) skips it.  The engine relies
    on that and checks none of them again, so Q, which the blocks of one
    shape share, must not be mutated afterwards.  The jump table ``jumps``,
    which ``sigengine.deform_to_zero`` fills, is shared by the blocks of one
    translation family (``GroupModel.instantiate``); every other block
    starts with a table of its own."""

    group: str
    inf_char: Tuple[Fraction, ...]
    elements: Tuple[BlockElement, ...]
    Q: Mapping[Tuple[int, int], IntPoly] = field(default_factory=dict)
    jumps: Dict[int, tuple] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "inf_char", _vec(self.inf_char))
        object.__setattr__(self, "Q", _validate_block(self))

    @classmethod
    def _derived(cls, group: str, inf_char: Tuple[Fraction, ...],
                 elements: Tuple[BlockElement, ...],
                 Q: Mapping[Tuple[int, int], IntPoly],
                 jumps: Optional[Dict[int, tuple]] = None) -> "Block":
        """A block made of facts already validated: an instance of a
        validated shape, sharing its ``jumps``, or a component of a
        validated block.  Q is taken as it is and ``_validate_block`` is
        not run again."""
        b = cls.__new__(cls)
        b.__dict__.update(group=group, inf_char=inf_char, elements=elements, Q=Q,
                          jumps={} if jumps is None else jumps)
        return b

    def ids(self) -> Tuple[int, ...]:
        return tuple(e.id for e in self.elements)

    def element(self, eid: int) -> BlockElement:
        """The element with id ``eid``, an int (a bool is not one)."""
        if type(eid) is int:
            for e in self.elements:
                if e.id == eid:
                    return e
        raise KeyError("no element %r in block" % (eid,))

    def q_poly(self, row: int, col: int) -> IntPoly:
        if row == col:
            return (1,)
        return self.Q.get((row, col), ())

    def find(self, param: LanglandsParam) -> Optional[BlockElement]:
        for e in self.elements:
            if e.param == param:
                return e
        return None


def _set_text(x) -> str:
    """repr(x) with a set's entries sorted by repr, not in hash-seed order."""
    if not isinstance(x, (set, frozenset)) or not x:
        return repr(x)
    text = "{%s}" % ", ".join(sorted(map(repr, x)))
    return text if type(x) is set else "%s(%s)" % (type(x).__name__, text)


def _validate_block(b: Block) -> Dict[Tuple[int, int], IntPoly]:
    """Check every invariant of ``b``, its Q as given, and return its Q
    without zero entries or trailing zero coefficients.  For a built-in
    group each element is real and names one of the group's Cartans by
    its index there."""
    model = group_model(b.group)
    cartan_ids = [c.id for c in model.cartans]
    seen = set()
    for e in b.elements:
        for name in ("id", "cartan", "length", "orient"):
            if type(getattr(e, name)) is not int:
                raise NonIntegerData("integer-data: element %r has %s %r, not an int"
                                     % (e.id, name, getattr(e, name)))
        if e.tau is not None and (type(e.tau) is not frozenset
                                  or any(type(x) is not int for x in e.tau)):
            raise NonIntegerData("integer-data: element %d has tau %s, not a frozenset "
                                 "of ints" % (e.id, _set_text(e.tau)))
        if e.id in seen:
            raise InvariantViolation("duplicate-id: element %d repeated" % e.id)
        seen.add(e.id)
        if e.length < 0:
            raise InvariantViolation(
                "nonnegative-length: element %d has length %d" % (e.id, e.length))
        if not e.param.is_real():
            raise SchemaError("param nu_im must be zero: block elements are real parameters")
        cid = e.param.discrete.cartan
        if cartan_ids and cid not in cartan_ids:
            raise SchemaError("element %d: param cartan %r is not a Cartan of %s (%s)"
                              % (e.id, cid, model.name, ", ".join(cartan_ids)))
        if cartan_ids and e.cartan != cartan_ids.index(cid):
            raise SchemaError("element %d: cartan index %d, but Cartan %r of %s has index %d"
                              % (e.id, e.cartan, cid, model.name, cartan_ids.index(cid)))
    lengths = {e.id: e.length for e in b.elements}
    orients = [e.orient for e in b.elements]
    if orients and any((o - orients[0]) % 2 != 0 for o in orients):
        raise InvariantViolation(
            "orientation-parity: orientation numbers of a block must share "
            "one parity (got %s)" % (sorted(set(orients)),)
        )
    Q = {}
    for (r, c), coeffs in b.Q.items():
        if any(type(x) is not int for x in (r, c, *coeffs)):
            raise NonIntegerData("integer-data: Q[%r,%r] = %r is not made of ints"
                                 % (r, c, coeffs))
        coeffs = p_trim(coeffs)
        if not coeffs:
            continue
        Q[(r, c)] = coeffs
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
    return Q


# ---------------------------------------------------------------------------
# operations

def _length_order(b: Block) -> List[int]:
    return [e.id for e in sorted(b.elements, key=lambda e: (e.length, e.id))]


def invert_multiplicity(b: Block) -> Dict[Tuple[int, int], IntPoly]:
    """Character polynomials P: the signed unitriangular inverse of Q.

    Returns P with $(-1)^{\\ell(\\Psi)-\\ell(\\Gamma)} P_{\\Gamma,\\Psi}$
    equal to $Q^{-1}$, so that the q = 1 specializations satisfy
    $\\sum_\\Gamma m_{\\Xi,\\Gamma} M_{\\Gamma,\\Psi} = \\delta_{\\Xi,\\Psi}$.
    Each column is solved at $q = 2^{bits}$ (``intpoly.p_slot_bits``) down
    the length order, each unknown pushed into the rows of its column of Q."""
    order = _length_order(b)
    lengths = {e.id: e.length for e in b.elements}
    bits = p_slot_bits(order, b.Q)
    cols: Dict[int, List[Tuple[int, int]]] = {}
    for (r, k), q in b.Q.items():
        if r != k:
            cols.setdefault(k, []).append((r, p_pack(q, bits)))
    P: Dict[Tuple[int, int], IntPoly] = {}
    for j, c in enumerate(order):
        acc = {c: 1}
        for k in reversed(order[:j + 1]):
            x = acc.get(k)
            if x:
                P[(k, c)] = p_unpack(-x if (lengths[c] - lengths[k]) % 2 else x, bits)
                for r, q in cols.get(k, ()):
                    acc[r] = acc.get(r, 0) - q * x
    return P


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
        out.append(Block._derived(b.group, b.inf_char, tuple(elems), Q))
    out.sort(key=lambda blk: min(e.id for e in blk.elements))
    return out


# ---------------------------------------------------------------------------
# serialization

def _int_parse(x) -> int:
    if type(x) is not int:
        raise SchemaError("integers must be JSON integers (got %r)" % (x,))
    return x


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise SchemaError("%s must be a list" % what)
    return x


def _parse_param(raw) -> LanglandsParam:
    if not isinstance(raw, Mapping):
        raise SchemaError("param must be an object")
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
    return {
        "group": b.group,
        "inf_char": [frac_str(x) for x in b.inf_char],
        "elements": elements,
        "Q": [{"row": r, "col": c, "coeffs": list(b.Q[(r, c)])} for (r, c) in sorted(b.Q)],
    }


def serialize_block(b: Block) -> str:
    """Canonical byte-deterministic JSON rendering."""
    return canonical_json(block_to_json_obj(b))


def parse_block(data: Union[bytes, str, Mapping]) -> Block:
    """Parse and fully validate one block file.

    Raises SchemaError for structural problems and InvariantViolation (with
    the violated invariant named) for mathematical ones."""
    data = decode_json(data)
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
    raw_elements = _json_list(data["elements"], "elements")
    if not raw_elements:
        raise SchemaError("elements must be a nonempty list")
    elements = []
    for raw in raw_elements:
        if not isinstance(raw, Mapping):
            raise SchemaError("element entries must be objects")
        for key in ("id", "cartan", "length", "orient", "param"):
            if key not in raw:
                raise SchemaError("element missing key %r" % key)
        param = _parse_param(raw["param"])
        tau = raw.get("tau")
        elem = BlockElement(
            id=_int_parse(raw["id"]),
            cartan=_int_parse(raw["cartan"]),
            length=_int_parse(raw["length"]),
            orient=_int_parse(raw["orient"]),
            param=param,
            tau=None if tau is None else frozenset(
                _int_parse(x) for x in _json_list(tau, "tau")),
        )
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
# group models

# one block in closed form: per element its id, the arguments of the
# discrete part of its parameter (``DiscreteParam.args``), its nu and its
# tau-invariant; and its Q
Slot = Tuple[int, tuple, Tuple[Fraction, ...], frozenset]
Form = Tuple[List[Slot], Dict[Tuple[int, int], IntPoly]]

# the tau-invariants and Q of the closed forms; a block copies its Q when
# it is validated and shares its shape's otherwise, so these are only read
_NO_TAU, _TAU_0 = frozenset(), frozenset({0})
_UNIT_Q = tuple({(eid, eid): (1,)} for eid in range(4))
_SL2R_CHAIN_Q = {(0, 0): (1,), (1, 1): (1,), (2, 2): (1,), (0, 2): (1,), (1, 2): (1,)}
_SL2C_CHAIN_Q = {(0, 0): (1,), (1, 1): (1,), (0, 1): (1,)}


def _singleton(eid: int, args: tuple, nu: Tuple[Fraction, ...]) -> Form:
    return [(eid, args, nu, _NO_TAU)], _UNIT_Q[eid]


class GroupModel:
    """Everything the engine knows about one real group.  This base is a
    group known only through block files: no Cartans, no built-in blocks,
    the label ``elt``, the block key of a parameter read from its
    infinitesimal character, and no rewriting table.  The built-in models
    ``SL2R`` and ``SL2C`` add root datum, Cartans, closed-form blocks,
    labels, equal rank and the principal series line the CLI builds;
    ``SL2R`` also the Hecht-Schmid table and K-type tables, ``SL2C`` its own
    block key.  A model is built in exactly when it has Cartans."""

    equal_rank = False
    datum: RootDatum
    cartans: Tuple[CartanClass, ...] = ()
    coords: Optional[int] = None  # infinitesimal-character coordinates
    ktype_support: Optional[Callable[[LanglandsParam, int], List[int]]] = None

    def __init__(self, name: str):
        self.name = name

    def cartan(self, cid: str) -> CartanClass:
        for c in self.cartans:
            if c.id == cid:
                return c
        raise UnsupportedGroup("no Cartan %r in group %r" % (cid, self.name))

    def key(self, inf_char) -> Tuple[Fraction, ...]:
        """Canonical block key: absolute coordinates, largest first, as many
        as the group has."""
        if not isinstance(inf_char, (tuple, list)):
            inf_char = (inf_char,)
        if self.coords is not None and len(inf_char) != self.coords:
            raise ValidationError(
                "group %r needs %d infinitesimal-character coordinate(s), got %d"
                % (self.name, self.coords, len(inf_char))
            )
        coords = [x if x >= 0 else -x for x in _vec(inf_char)]
        if len(coords) > 1:
            coords.sort(reverse=True)
        return tuple(coords)

    def block_key(self, g: LanglandsParam) -> Tuple[Fraction, ...]:
        """The canonical key of the blocks that may hold ``g``, which a miss
        in ``BlockProvider.find`` names."""
        return self.key(g.gamma)

    def forms(self, ic: Tuple[Fraction, ...]) -> List[Form]:
        """The blocks at the canonical key ``ic`` in closed form, in
        partition order: the one description of the built-in blocks, which
        ``place`` reads and ``instantiate`` builds.  A slot gives its
        parameter as the arguments of its discrete part and its nu, so
        that no ``DiscreteParam`` is built to read a form."""
        raise UnsupportedGroup("no built-in model for group %r" % self.name)

    @staticmethod
    def place(forms: List[Form], g: LanglandsParam) -> Optional[Tuple[int, int]]:
        """The index of the block of ``forms`` that holds ``g`` and the id of
        its slot that does; None when no block holds ``g``.  A slot holds
        ``g`` when ``g`` is real and has its nu and the arguments of its
        discrete part, which is ``LanglandsParam`` equality."""
        if g.nu_im is None:
            args = g.discrete.args()
            for i, (slots, _) in enumerate(forms):
                for eid, slot_args, nu, _ in slots:
                    if nu == g.nu and slot_args == args:
                        return i, eid
        return None

    def instantiate(self, ic: Tuple[Fraction, ...], i: int, form: Form, shapes: dict,
                    held: Optional[Tuple[int, LanglandsParam]] = None) -> Block:
        """Block ``i`` of the partition at the canonical key ``ic``, built
        from its closed ``form``: each slot's parameter, with lengths and
        orientation numbers.  ``held`` is a slot id and the parameter
        ``place`` found there, which that slot takes as it is, so a wall
        lookup builds the parameters of the other slots only.

        ``shapes`` maps a family key to the Cartan indices, lengths and
        orientation numbers of a block's elements, its validated Q and the
        jump table of the family's first block.  The key holds the group,
        the block's index, each coordinate's denominator, numerator mod
        twice the denominator and sign, and the ties between coordinates.
        In both built-in models these fix the sign and integrality of every
        pairing and the floor parity of every real one, which is all that
        ``length`` and ``orientation_number`` read.  A block with a known
        shape takes it, jump table included, and is not validated again:
        ``_validate_block`` and the jumps read only ids, lengths,
        orientation numbers and Q; the family's first block is validated."""
        slots, Q = form
        hid, hg = held or (None, None)
        specs = [(eid, hg if eid == hid else LanglandsParam(DiscreteParam(*args), nu), tau)
                 for eid, args, nu, tau in slots]
        family = (self.name,
                  tuple((x.denominator, x.numerator % (2 * x.denominator), x.numerator > 0)
                        for x in ic),
                  tuple(x == y for x, y in zip(ic, ic[1:])), i)
        shape = shapes.get(family)
        if shape is None:
            b = Block(self.name, ic, tuple(self.element(*s) for s in specs), Q)
            shapes[family] = (tuple((e.cartan, e.length, e.orient) for e in b.elements),
                              b.Q, b.jumps)
            return b
        invariants, Q, jumps = shape
        return Block._derived(self.name, ic, tuple(
            BlockElement(eid, c, n, o, param, tau)
            for (eid, param, tau), (c, n, o) in zip(specs, invariants)), Q, jumps)

    def label(self, param: LanglandsParam) -> str:
        """The name of a block element, and of a term in the standard and
        irreducible bases."""
        return "elt"

    def label_text(self, g: LanglandsParam) -> str:
        """The name of a term in the final tempered basis."""
        return self.label(g)

    def hs_rewrite(self, d: DiscreteParam) -> Tuple[LanglandsParam, ...]:
        """The Hecht-Schmid table: the final tempered parameters whose sum is
        $I(\\Lambda, 0)$ for a nonfinal $\\Lambda$.  A final $\\Lambda$ is
        its own rewrite (``sigengine.hs_rewrite``) and has no row here."""
        raise MissingRewriteTable(
            "no rewriting table for %s parameter on Cartan %r of group %r"
            % ("final" if d.final else "nonfinal", d.cartan, self.name)
        )

    def line(self, parity: int, m: int, nu: Fraction) -> LanglandsParam:
        """The principal series at nu picked by a parity +-1 or a weight m."""
        raise UnsupportedGroup("no built-in parameters for group %r" % self.name)

    def element(self, eid: int, param: LanglandsParam,
                tau: Optional[frozenset]) -> BlockElement:
        """Element with length and orientation number computed from the root
        datum rather than tabulated."""
        d, gamma = param.discrete, param.gamma
        cart = self.cartan(d.cartan)
        return BlockElement(
            id=eid,
            cartan=self.cartans.index(cart),
            length=length(self.datum, cart.root_class, gamma),
            orient=orientation_number(self.datum, cart.root_class, d.grading, gamma),
            param=param,
            tau=tau,
        )


class _SL2R(GroupModel):
    """SL(2,R): compact and split Cartans, blocks keyed by |k|."""

    equal_rank = True
    datum = SL2R_DATUM
    cartans = (SL2R_COMPACT, SL2R_SPLIT)
    coords = 1

    def forms(self, ic: Tuple[Fraction, ...]) -> List[Form]:
        (k,) = ic
        if k == 0:
            # singular point: the spherical principal series and the two
            # limits of discrete series are all irreducible
            return [
                _singleton(0, _SPLIT_ARGS[0], ic),
                _singleton(1, _compact_args(1, k), _ZERO_NU),
                _singleton(2, _compact_args(-1, k), _ZERO_NU),
            ]
        if k.denominator == 1:
            # reducible parity: spherical at odd k, nonspherical at even k
            red_eps = 0 if k.numerator % 2 == 1 else 1
            chain = (
                [
                    (0, _compact_args(1, k), _ZERO_NU, _TAU_0),
                    (1, _compact_args(-1, k), _ZERO_NU, _TAU_0),
                    (2, _SPLIT_ARGS[red_eps], ic, _NO_TAU),
                ],
                _SL2R_CHAIN_Q,
            )
            return [chain, _singleton(3, _SPLIT_ARGS[1 - red_eps], ic)]
        # nonintegral: two irreducible principal series
        return [_singleton(0, _SPLIT_ARGS[0], ic), _singleton(1, _SPLIT_ARGS[1], ic)]

    def label(self, param: LanglandsParam) -> str:
        d = param.discrete
        if d.cartan == "compact":
            k = d.dlambda[0]
            sign = "+" if (k > 0 or (k == 0 and d.ktype_parity == 0)) else "-"
            if k == 0:
                return "LDS%s" % sign
            return "DS%s(%s)" % (sign, frac_str(abs(k)))
        eps = "+" if d.grading.get(0, 1) == 1 else "-"
        return "PS%s(%s)" % (eps, frac_str(param.nu[0]))

    def label_text(self, g: LanglandsParam) -> str:
        # the spherical principal series at nu = 0 gets the dedicated
        # tempered name PS0
        d = g.discrete
        if (d.cartan == "split" and d.grading.get(0, 1) == 1
                and all(x == 0 for x in g.nu)):
            return "PS0"
        return self.label(g)

    def hs_rewrite(self, d: DiscreteParam) -> Tuple[LanglandsParam, ...]:
        if not d.final and d.cartan == "split":
            # Hecht-Schmid: the nonspherical principal series at nu = 0 is
            # the sum of the two limits of discrete series
            return (sl2r_ds_param(1, Fraction(0)), sl2r_ds_param(-1, Fraction(0)))
        return super().hs_rewrite(d)

    def line(self, parity: int, m: int, nu: Fraction) -> LanglandsParam:
        if parity not in (1, -1):
            raise ValidationError("parity must be +1 or -1")
        return sl2r_ps_param(0 if parity == 1 else 1, nu)

    def lowest_ktype(self, g: LanglandsParam) -> int:
        """Lowest K-type weight of a final tempered parameter."""
        d = g.discrete
        if d.cartan == "compact":
            k = int(abs(d.dlambda[0]))
            if d.dlambda[0] > 0 or (d.dlambda[0] == 0 and d.ktype_parity == 0):
                return k + 1
            return -(k + 1)
        if d.grading.get(0, 1) == 1:
            return 0
        raise MissingRewriteTable("nonspherical series at nu = 0 is not final")

    def ktype_support(self, g: LanglandsParam, cutoff: int) -> List[int]:
        """K-type weights up to |weight| <= cutoff of a final tempered
        parameter: the full even ladder or a half ladder."""
        if g.discrete.cartan == "split":
            return sorted({s * n for n in range(0, cutoff + 1, 2) for s in (1, -1)})
        low = self.lowest_ktype(g)
        step = 2 if low > 0 else -2
        out = []
        n = low
        while abs(n) <= cutoff:
            out.append(n)
            n += step
        return out


class _SL2C(GroupModel):
    """SL(2,C): one complex Cartan, not equal rank, blocks keyed by the two
    coordinates (m, v)."""

    datum = SL2C_DATUM
    cartans = (SL2C_CARTAN,)
    coords = 2

    def block_key(self, g: LanglandsParam) -> Tuple[Fraction, ...]:
        return self.key((2 * g.discrete.dlambda[0], 2 * g.nu[0]))

    def forms(self, ic: Tuple[Fraction, ...]) -> List[Form]:
        a, b = ic
        # the key holds 2 dlambda_1 and 2 nu_1; a slot's parameter holds
        # their halves
        half_a, half_b = a / 2, b / 2
        if (
            a.denominator == 1
            and b.denominator == 1
            and a > b
            and (a.numerator - b.numerator) % 2 == 0
        ):
            # one 2-chain: I(b, a) has the J(a, b) constituent below
            return [(
                [(0, _complex_args(half_a), (half_b, -half_b), _NO_TAU),
                 (1, _complex_args(half_b), (half_a, -half_a), _TAU_0)],
                _SL2C_CHAIN_Q,
            )]
        halves = [(half_a, half_b)] if a.denominator == 1 else []
        if b.denominator == 1 and b != a:
            halves.append((half_b, half_a))
        if not halves:
            raise ValueError("no sl2c parameter: neither coordinate is an integer")
        return [_singleton(i, _complex_args(half_m), (half_v, -half_v))
                for i, (half_m, half_v) in enumerate(halves)]

    def label(self, param: LanglandsParam) -> str:
        return "PS(%s,%s)" % (
            frac_str(param.discrete.dlambda[0] * 2), frac_str(param.nu[0] * 2))

    def line(self, parity: int, m: int, nu: Fraction) -> LanglandsParam:
        return sl2c_param(m, nu)


SL2R = _SL2R("sl2r")
SL2C = _SL2C("sl2c")
_GROUPS = {model.name: model for model in (SL2R, SL2C)}


def group_model(group: str) -> GroupModel:
    """The built-in model of a group, or the block-file-only model."""
    return _GROUPS.get(group) or GroupModel(group)


def builtin_block(group: str, inf_char, shapes: Optional[dict] = None) -> List[Block]:
    """The full partition of B(chi) into blocks at this infinitesimal
    character, with lengths, orientation numbers, tau-invariants and Q in
    closed form: each block of ``GroupModel.forms`` at the canonical key,
    built by ``GroupModel.instantiate``, whose family memo is ``shapes``,
    or a fresh one: then each block, a family of its own, is validated."""
    model = group_model(group)
    ic = model.key(inf_char)
    shapes = {} if shapes is None else shapes
    return [model.instantiate(ic, i, form, shapes) for i, form in enumerate(model.forms(ic))]


# ---------------------------------------------------------------------------
# provider

class BlockProvider:
    """Lookup of blocks keyed by (group, infinitesimal character).
    Registered libraries win; built-in groups resolve analytically; a miss
    is a hard MissingBlock error.  ``get`` serves the partition at a key,
    ``find`` the one block that holds a parameter.

    The provider owns four caches, each one empty when the provider is
    created and private to it: the registered libraries, the built-in
    blocks ``find`` has built (by partition index, under their key), one
    validated block shape per translation family (so a block is validated
    once per shape, not once per wall; the shape also holds the jump table
    its blocks share), and the results of ``deform_to_zero``.  ``get``
    builds a built-in partition from the shapes and keeps nothing.  A
    built block depends only on its key and a shape only on its family
    key, and ``get`` and ``find`` look up a registered library first, so
    ``register`` leaves both as they are.
    The deformation memo holds the points above the walls that a walk
    crossed, the query or a wall point $(\\Lambda, t_i\\nu)$, under the key
    a direct call uses; a walk that crosses no wall is a rewrite and is
    not remembered.  The crossing times of $t_i\\nu$ are exactly
    $\\{t/t_i : t \\le t_i\\}$, so the partial sum up to that wall is the
    direct answer, and each child entering at a wall was held to the cap
    $|d\\lambda|^2 + t_{prev}^2|\\nu|^2$ that the direct call uses.  Its
    entries depend on the registered libraries, so ``register`` empties
    it: no answer depends on what was asked before a library arrived.
    The caches are plain dicts without a lock: two threads sharing a
    provider can at worst compute the same value twice."""

    def __init__(self):
        self._store: Dict[Tuple[str, Tuple[Fraction, ...]], List[Block]] = {}
        self._built: Dict[Tuple[str, Tuple[Fraction, ...]], Dict[int, Block]] = {}
        self._shapes: Dict[tuple, tuple] = {}
        self._deformations: Dict[tuple, object] = {}

    def register(self, blocks: Sequence[Block]) -> None:
        """File the blocks of one library under their common key.  A list
        whose blocks lie at two keys, or a key already registered, raises
        ValueError; an element with a lower constituent (an off-diagonal
        entry in its column of Q) off the reducibility walls of its Cartan
        (``params._walls``) raises InvariantViolation; nothing is stored
        then.  So a standard module off the walls is irreducible, as
        ``scan`` assumes at its facet midpoints (built-in blocks are so by
        construction).  A group without Cartans, known only through files,
        is not checked until files can give it Cartans."""
        if not blocks:
            return
        keys = [(b.group, group_model(b.group).key(b.inf_char)) for b in blocks]
        key = keys[0]
        for other in keys:
            if other != key:
                raise ValueError(
                    "one block library at two keys: %s at %s and %s at %s"
                    % (key[0], [frac_str(x) for x in key[1]],
                       other[0], [frac_str(x) for x in other[1]])
                )
        if key in self._store:
            raise ValueError(
                "duplicate block library for %s at %s"
                % (key[0], [frac_str(x) for x in key[1]])
            )
        model = group_model(key[0])
        for b in blocks if model.cartans else ():
            for c in sorted({c for r, c in b.Q if r != c}):
                g = b.element(c).param
                if not any(level == x for rr in model.cartan(g.discrete.cartan).restricted
                           for x in (dot(g.nu, rr.covector),)
                           for level, _ in _walls(rr, g.discrete, x, True)):
                    raise InvariantViolation(
                        "reducible-on-wall: element %d (%s) has a lower constituent but "
                        "lies on no reducibility wall of its Cartan" % (c, model.label(g)))
        self._store[key] = list(blocks)
        self._deformations.clear()

    def get(self, group: str, inf_char) -> List[Block]:
        model = group_model(group)
        key = (group, model.key(inf_char))
        if key in self._store:
            return self._store[key]
        if model.cartans:
            return builtin_block(group, key[1], self._shapes)
        raise MissingBlock(
            "no block data for group %r at infinitesimal character %s"
            % (group, [frac_str(x) for x in key[1]])
        )

    def find(self, group: str, g: LanglandsParam) -> Tuple[Block, BlockElement, int]:
        """The block at ``g``'s key that holds ``g``, its element and its
        index in the partition ``get`` serves there.  A registered library
        is searched alone; else the built-in blocks already built are
        searched, and only a miss builds the block that holds ``g``, by
        ``place`` and ``instantiate``: its other slots get parameters of
        their own, and ``g``'s slot takes ``g``.  While no library is
        registered, the key is hashed once.  When no block there holds
        ``g``, raises MissingBlock naming that key."""
        model = group_model(group)
        ic = model.block_key(g)
        key = (group, ic)
        library = self._store.get(key) if self._store else None
        built = self._built.setdefault(key, {}) if library is None and model.cartans else None
        for i, blk in built.items() if built is not None else enumerate(library or ()):
            e = blk.find(g)
            if e is not None:
                return blk, e, i
        if built is not None:
            forms = model.forms(ic)
            placed = model.place(forms, g)
            if placed is not None:
                i, eid = placed
                blk = built[i] = model.instantiate(ic, i, forms[i], self._shapes, (eid, g))
                return blk, blk.element(eid), i
        raise MissingBlock(
            "no block at infinitesimal character %s contains the parameter %s"
            % ([frac_str(x) for x in ic], model.label_text(g))
        )

    def deformation(self, key: tuple):
        """A remembered ``deform_to_zero`` result, or None."""
        return self._deformations.get(key)

    def remember_deformation(self, key: tuple, value) -> None:
        self._deformations[key] = value
