"""Exception types shared across the package."""


class CarlitzError(Exception):
    """Base class for all package errors."""


class NotPrimeError(CarlitzError):
    """p is not a prime number."""


class SizeLimitError(CarlitzError):
    """A size limit was exceeded: a field order, an enumeration, the degree
    q^j of a j-fold q-power recursion, a torsion field, or the length of a
    series block."""


class FieldMismatchError(CarlitzError):
    """Operands belong to different field towers or contexts."""


class PolyZeroDivisionError(CarlitzError):
    """Polynomial division by the zero polynomial."""


class NotIrreducibleError(CarlitzError):
    """A polynomial required to be irreducible is not."""


class NoRootError(CarlitzError):
    """The requested extension contains no root of the polynomial."""


class ZeroInverseError(CarlitzError):
    """Inversion of an element that is zero (or zero to working precision)."""


class EmptyPrecisionError(CarlitzError):
    """An arithmetic result has no representable term at its precision."""


class ShapeMismatchError(CarlitzError):
    """Tate elements with incompatible variable counts."""


class PrecisionExhaustedError(CarlitzError):
    """An operation cannot deliver any sound output precision."""


class AlphaTooLargeError(CarlitzError):
    """Series argument outside the convergence domain."""


class LatticePoleError(CarlitzError):
    """Evaluation point collides with a lattice point to working precision."""


class NotCoprimeError(CarlitzError):
    """Argument is required to be coprime to the conductor."""


class RootMismatchError(CarlitzError):
    """Chosen root is not a root of the designated polynomial."""


class SingularSystemError(CarlitzError):
    """A linear system that must be solvable is singular."""


class NotInvertibleError(CarlitzError):
    """The extended Euclid failed to invert a residue-ring element."""


class UnknownCheckError(CarlitzError):
    """Check name not present in the registry."""


class ConfigError(CarlitzError):
    """Invalid CLI or config-file parameters."""


class InvariantError(CarlitzError):
    """A proved identity failed inside a computation: an internal fault."""
