"""Exception types shared across the toolkit.

The CLI maps these onto distinct exit codes: ConfigError -> 2,
VerificationError (and subclasses) -> 3, TransportExhausted -> 4.
"""

from __future__ import annotations


class ZeroSumError(Exception):
    """Base class for all toolkit errors."""


class ContractViolation(ZeroSumError, ValueError):
    """An argument breaks a documented precondition (shape, range, enum)."""


class DegenerateMatrixError(ZeroSumError, ValueError):
    """Operation needs a non-constant matrix; normalize the payoffs first."""


class ConfigError(ZeroSumError, ValueError):
    """Bad CLI flag, config file, or agent/endpoint configuration."""


class VerificationError(ZeroSumError, RuntimeError):
    """A certificate or theorem check that must hold did not; instance is the
    offending input, when there is one."""

    def __init__(self, message: str, instance=None):
        super().__init__(message)
        self.instance = instance


class SolverError(VerificationError):
    """LP or support enumeration failed; carries the offending matrix."""


class ConstructionError(VerificationError):
    """A padded game failed its equilibrium-preservation certificate."""


class TransportExhausted(ZeroSumError, RuntimeError):
    """Every sample of a remote run failed at the transport level."""
