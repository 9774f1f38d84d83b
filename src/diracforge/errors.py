"""Exception hierarchy.

Three families matter to callers:

* ``VerificationError`` subclasses signal that an exact identity the engine
  promises to certify failed to hold for the given input.  The command line
  maps these to exit status 1.
* ``InternalError`` signals that a consistency check of the engine itself
  failed: a fault in this package, not in the input.  Exit status 3.
* everything else under ``DiracforgeError`` signals a contract violation in
  the input (wrong system, non-dominant weight, unusable window, ...) and is
  mapped to exit status 2, like an argument parse error.
"""


class DiracforgeError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- usage side

class SystemMismatch(DiracforgeError):
    """Operands belong to different root systems."""


class UnsupportedType(DiracforgeError):
    """Root system family/rank outside the supported table."""


class BadEntryLine(DiracforgeError):
    """A file line that is not "<coords> <multiplicity>"; the message
    starts with its line number."""


class NotDominant(DiracforgeError):
    pass


class NotIntegral(DiracforgeError):
    """A weight that must lie in the lattice does not."""


class IncompatiblePair(DiracforgeError):
    """Equal-rank pair construction failed (rank, integrality, embedding)."""


class DimensionMismatch(DiracforgeError):
    pass


class BadStructureConstants(DiracforgeError):
    """Structure constants fail antisymmetry or the Jacobi identity."""


class NotOrthogonal(DiracforgeError):
    pass


class TooLarge(DiracforgeError):
    """Desk-scale guard tripped."""


class CliffordConstructionError(DiracforgeError):
    """No Gaussian-rational Clifford model for the requested form."""


class NonGenericPolarization(DiracforgeError):
    """A fiber weight pairs to zero with the polarizing direction."""


class NonGenericDirection(DiracforgeError):
    """A localization direction pairs to zero where it must not."""


class NonTrivialBaseAction(DiracforgeError):
    pass


class WindowTooSmall(DiracforgeError):
    """A series operation cannot certify completeness on the needed window."""


class WindowUnderflow(DiracforgeError):
    """A shift pushed required series terms outside the declared window."""


class NotDelzant(DiracforgeError):
    """Half-space data fails simplicity/unimodularity/boundedness."""


class NotPrequantized(DiracforgeError):
    """Vertices of the model are not lattice points."""


class SingularShift(DiracforgeError):
    """The reduction level hits a critical value of the moment map."""


# ------------------------------------------------------------- fault side

class InternalError(DiracforgeError):
    """An internal consistency check failed. Exit status 3."""


# --------------------------------------------------------- verification side

class VerificationError(DiracforgeError):
    """An exact identity that should hold was violated. Exit status 1."""


class NotScalar(VerificationError):
    """An operator square that must be scalar is not."""


class SpectralMismatch(VerificationError):
    """A block eigenvalue disagrees with its predicted exact value."""


class QRViolation(VerificationError):
    """Quantization does not commute with reduction on the tested model."""


class TransferMismatch(VerificationError):
    """Trivial-isotypic multiplicity not preserved by induction."""


class PolarizationViolated(VerificationError):
    """A series that must be (strictly) polarized has a witness against it."""


class ConventionMismatch(VerificationError):
    """Cross-convention oracle comparison failed (orientation/shift audit)."""
