"""Exception types shared across the package."""

__all__ = ["GuardError", "RipOrderError", "NspOrderError", "MapDomainError", "RequirementError"]


class GuardError(ValueError):
    """A combinatorial guard was exceeded (problem too large for brute force)."""


class RipOrderError(RuntimeError):
    """The restricted isometry property of the requested order does not hold."""


class NspOrderError(RuntimeError):
    """A sampled null-space vector is itself sparse: the null space property
    of the requested order fails outright."""


class MapDomainError(ValueError):
    """An input point lies outside a nonlinear map's domain."""


class RequirementError(ValueError):
    """A pointwise-linearization requirement does not hold at the given point."""
