"""Exception types shared across the package."""


class Ap4KitError(Exception):
    """Base class for every error raised by this package."""


class NotPrimeError(Ap4KitError):
    """The requested modulus is composite."""


class TooSmallError(Ap4KitError):
    """The requested modulus is below the smallest admissible prime (5)."""


class TooLargeError(Ap4KitError):
    """The argument exceeds the supported range (moduli < 2**31, search sizes)."""


class DegenerateQuadraticError(Ap4KitError):
    """The leading quadratic coefficient vanishes mod n."""


class ModulusMismatchError(Ap4KitError):
    """Signals combined in one operation live on different moduli."""


class ModulusTooSmallError(Ap4KitError):
    """No admissible interval block length exists for this modulus."""


class OutOfDomainError(Ap4KitError):
    """A grid point lies outside {1,2,3,4}^3."""


class InvalidDesignError(Ap4KitError):
    """The design fails the one-point-per-line condition."""


class ProbabilityOutOfRangeError(Ap4KitError):
    """A probability value lies outside [0, 1]."""


class IoFailureError(Ap4KitError):
    """A file could not be read, written, or parsed in the expected format."""
