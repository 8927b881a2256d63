"""Exception types shared across the package."""


class HybridGateError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HybridGateError, ValueError):
    """An input lies outside the validated domain of an operation."""


class ConfigError(HybridGateError, ValueError):
    """A scenario configuration is invalid; the message names the offending key.

    Mapped to CLI exit code 1.
    """

    def __init__(self, message, key=None):
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(message)
        self.key = key


class StepSizeError(ConfigError):
    """Requested integration step too coarse for the Hamiltonian norm."""


class NumericalFailure(HybridGateError, RuntimeError):
    """A time evolution or quadrature failed its accuracy contract.

    Raised on unitarity drift beyond tolerance or non-convergent
    quadrature refinement. Mapped to CLI exit code 2.
    """
