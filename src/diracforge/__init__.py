"""Exact equivariant index computations for compact Lie groups.

Everything runs over exact rationals (Gaussian rationals where spinors force
complex entries); no routine in the package touches floating point.  The
re-exports below are the supported surface; module-level imports stay valid
but their internals move without notice.
"""

from .errors import (ConventionMismatch, DiracforgeError, NotScalar,
                     PolarizationViolated, QRViolation, SpectralMismatch,
                     TransferMismatch, VerificationError)
from .liecore import pairFromLabel, systemFromLabel
from .characters import (ConeSeries, FormalCharacter, characterToSeries,
                         irreducibleCharacter, restrictCharacter,
                         tensorDecompose)
from .clifford import splitCliffordForPair
from .dirac import kernelIndex, spectralCheckRelative, verifyKostantIdentity
from .induction import (diracInduct, inductCharacter,
                        multiplicityTransferCheck)
from .polarized import (bundleIndex, polarizedExpand, vanishingCheck,
                        vectorSpaceIndex)
from .qr import (CoadjointModel, ToricModel, coadjointQuantization, cp1, cp2,
                 fixedPointCharacter, hirzebruch, kirwanDecomposeCircle,
                 pointModel, productQRCheck, qrCheckCircle,
                 toricQuantization)

__version__ = "0.1.0"
