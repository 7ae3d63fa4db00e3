"""Exception hierarchy shared across the package.

Two families matter to callers: configuration/validation problems
(exit code 2 at the CLI) and numeric failures (exit code 3).
"""

from __future__ import annotations


class ExpmaError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(ExpmaError, ValueError):
    """One or more model/config invariants are violated.

    Carries a list of (field, code, message) triples so callers can key on
    the named violation, e.g. ``kappa_equals_lambda``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = [f"{field}: {message} [{code}]" for field, code, message in self.violations]
        super().__init__("invalid parameters: " + "; ".join(lines))

    @property
    def codes(self) -> list[str]:
        return [code for _, code, _ in self.violations]


class ConfigError(ExpmaError, ValueError):
    """Experiment configuration is malformed or inconsistent."""


class NumericError(ExpmaError, RuntimeError):
    """Base class for runtime numeric failures."""


class DegenerateZProcessError(NumericError):
    """C(T)*T - D(T)^2 <= 0: the affine optimizer's normal equations are singular."""


class QuadratureError(NumericError):
    """Adaptive quadrature did not reach the requested tolerance."""

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(f"{message} (achieved tolerance {achieved_tol:.3e})")
        self.achieved_tol = achieved_tol


class SchemeInstabilityError(NumericError):
    """Grid output is non-monotone or out of range beyond scheme tolerance."""


class OutsideSupportError(NumericError):
    """Conditional densities vanish at the evaluation point."""


class LeverageCostSingularityError(NumericError):
    """1 +/- omega*f is numerically zero: the share-change equation is singular."""


class ResourceLimitError(ConfigError):
    """Requested simulation size exceeds the configured resource bound."""
