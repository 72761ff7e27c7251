"""Exception types shared across the package."""

import numpy as np


class ZeipelError(Exception):
    """Base class for package errors."""


class DomainError(ZeipelError):
    """Input outside the documented domain of an operation."""


class SolverError(ZeipelError):
    """Iterative scalar solver failed to converge."""


class MapError(ZeipelError):
    """Canonical-map Newton iteration failed to converge."""


class DegenerateFrequencyError(ZeipelError):
    """Unperturbed frequency vector too close to zero for the homological solve."""


class IntegrationError(ZeipelError):
    """Numerical trajectory integration failed."""


class UsageError(ZeipelError):
    """Inconsistent arguments at a command or API boundary."""


def describe(names, values):
    """`name=value` pairs of a failing state, each value as a float repr."""
    return ", ".join(f"{name}={float(x)!r}" for name, x in zip(names, values))


def raise_first(*guards):
    """Raise a DomainError for the first sample that fails a guard.

    Each guard is (failed, message): a boolean (N,) mask, given in check
    order, and a string or a function of the sample index.  The lowest
    failing index wins, and on it the earliest guard; the message names the
    index when N > 1.
    """
    failed = np.array([mask for mask, _ in guards])
    if not failed.any():
        return
    k = int(np.argmax(failed.any(axis=0)))
    message = guards[int(np.argmax(failed[:, k]))][1]
    text = message(k) if callable(message) else message
    raise DomainError(f"sample {k}: {text}" if failed.shape[1] > 1 else text)
