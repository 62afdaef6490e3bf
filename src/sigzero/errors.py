"""Exception vocabulary shared across the package.

The CLI maps these onto stable exit codes: missing block data is 2,
validation failures are 3, unsupported requests are 4.
"""


class SigzeroError(Exception):
    """Base class for all package errors."""


class ValidationError(SigzeroError):
    """Malformed or inconsistent input data."""


class UnsupportedError(SigzeroError):
    """Request outside the supported scope."""


# sigring
class OddOrientationDifference(SigzeroError):
    """Orientation numbers differ by an odd amount; s^{delta/2} undefined."""


# rootdata
class InvalidInvolution(ValidationError):
    """theta fails to be an order-2 lattice map permuting the roots."""


class UnsupportedRealSystem(UnsupportedError):
    """Real integral system is not a product of A1's; no length is given."""


# blocks
class SchemaError(ValidationError):
    """Block file does not conform to the JSON schema."""


class InvariantViolation(ValidationError):
    """Block file violates a structural invariant; message names it."""


class NonIntegerData(ValidationError):
    """A block's ids, Cartan indices, lengths, orientation numbers or Q
    entries hold a value that is not an int (a bool is not one)."""


class UnsupportedGroup(UnsupportedError):
    """No built-in model for the requested group."""


# sigengine
class MissingBlock(SigzeroError):
    """Provider cannot resolve a block at a needed infinitesimal character."""


class BoundViolation(SigzeroError):
    """Termination certificate |d(Lambda')|^2 strictly between parent bounds
    failed; signals inconsistent block data."""


class MissingRewriteTable(SigzeroError):
    """No rewriting rule for a nonfinal discrete parameter at nu = 0."""


class UnsupportedUnequalRank(UnsupportedError):
    """Unitarity requested for a group of unequal rank; c-signatures only."""


class MissingParity(ValidationError):
    """ktype_parity absent on a final parameter needed by the unitary test."""


# jantzen
class SingularFamily(SigzeroError):
    """det L is identically zero; no finite Jantzen filtration."""


class DegenerateResidual(SigzeroError):
    """A residual form is singular; indicates a level miscount."""
