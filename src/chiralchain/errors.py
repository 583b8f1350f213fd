"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration and domain
problems exit with 2, numerical-integrity problems with 3.
"""

from __future__ import annotations

__all__ = ["ChiralChainError", "DomainError", "ConfigError", "ResolutionError",
           "FitError", "NumericsError", "IntegrityError"]


class ChiralChainError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ChiralChainError, ValueError):
    """An argument lies outside the supported domain of an operation."""


class ConfigError(ChiralChainError, ValueError):
    """An invalid chain, disorder, grid, or CLI configuration."""


class ResolutionError(ChiralChainError, ValueError):
    """A time grid is too coarse for the requested feature detection."""


class FitError(ChiralChainError, ValueError):
    """A fit window is degenerate or contains unusable data."""


class NumericsError(ChiralChainError, RuntimeError):
    """A numerical routine failed to converge to the requested tolerance.

    Carries the best available estimate and the residual at the point of
    failure so callers can decide whether the partial answer is usable.
    """

    def __init__(self, message: str, estimate: float | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual


class IntegrityError(NumericsError):
    """Two independent numerical routes disagree beyond tolerance."""
