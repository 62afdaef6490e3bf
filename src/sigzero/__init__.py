"""sigzero: exact signatures of invariant Hermitian forms by deformation to
nu = 0.

The library computes c-invariant form signatures of standard and irreducible
modules in the signature ring W = Z[s]/(s^2 - 1), deforms continuous
parameters to zero through the wall-crossing calculus, and decides
unitarity.  Built-in models cover SL(2,R) and SL(2,C); larger examples are
ingested as block-library JSON files.  All arithmetic is exact.
"""

from .errors import (
    BoundViolation,
    DegenerateResidual,
    InvalidInvolution,
    InvariantViolation,
    MissingBlock,
    MissingParity,
    MissingRewriteTable,
    OddOrientationDifference,
    SchemaError,
    SigzeroError,
    SingularFamily,
    UnsupportedError,
    UnsupportedGroup,
    UnsupportedRealSystem,
    UnsupportedUnequalRank,
    ValidationError,
)
from .sigring import (
    WElem,
    WPoly,
    W_ONE,
    W_S,
    W_ZERO,
)
from .rootdata import (
    Involution,
    RootClass,
    RootDatum,
    classify_roots,
    dot,
    length,
    norm_sq,
    orientation_number,
)
from .params import (
    CartanClass,
    DiscreteParam,
    Hyperplane,
    LanglandsParam,
    RestrictedRoot,
    crossing_times,
    frac_str,
    hyperplanes,
    param_from_json,
    param_to_json,
    parse_frac,
)
from .blocks import (
    Block,
    BlockElement,
    BlockProvider,
    block_to_json_obj,
    builtin_block,
    group_cartan,
    invert_multiplicity,
    parse_block,
    serialize_block,
    sl2c_param,
    sl2r_ds_param,
    sl2r_ps_param,
    split_components,
)
from .sigengine import (
    SignatureChar,
    StdLabel,
    UnitaryResult,
    deform_step,
    deform_to_zero,
    hs_rewrite,
    irreducible_in_standards,
    ktype_signature,
    signature_P,
    signature_Q,
    unitary_test,
)
from .jantzen import (
    RatFn,
    jantzen_levels,
    level_signatures,
    oracle_signature,
    oracle_unitary,
    parse_ratmatrix,
    sl2_c_function,
    sl2_intertwining,
    sl2_ktypes,
)

__version__ = "0.1.0"
