"""Exception types raised across the library."""


class ShiftFEMError(Exception):
    """Base class for all library errors."""


class NoRootInBracket(ShiftFEMError):
    """The implicit boundary function has no sign change in the ray bracket."""


class NoConvergence(ShiftFEMError):
    """The boundary root iteration failed to converge."""


class InvalidParam(ShiftFEMError, ValueError):
    """Mesh generator called with out-of-range parameters."""


class MeshAssumptionViolated(ShiftFEMError):
    """A triangle breaks the one-curved-edge-per-element mesh assumption."""


class UnsupportedDegree(ShiftFEMError, ValueError):
    """Polynomial or quadrature degree outside the supported range."""


class SingularLocalSystem(ShiftFEMError):
    """Local node matrix is numerically singular (mesh too coarse)."""


class InconsistentDof(ShiftFEMError):
    """Element-to-global map disagrees with the local node count."""


class NotSPD(ShiftFEMError):
    """A Gram matrix failed a symmetric positive definite factorization."""


class SingularMatrix(ShiftFEMError):
    """Sparse factorization broke down on the assembled system."""


class DimensionMismatch(ShiftFEMError, ValueError):
    """Linear system operands have incompatible shapes."""


class MissingExact(ShiftFEMError, ValueError):
    """Error norms requested without an exact solution."""


class NonDyadicSequence(ShiftFEMError, ValueError):
    """Convergence orders need mesh parameters doubling between entries."""


class ConfigError(ShiftFEMError, ValueError):
    """Experiment configuration is malformed or inconsistent."""
