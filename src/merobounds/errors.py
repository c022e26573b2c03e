"""Exception types shared across the package, and the validators that raise them."""

import operator

import numpy as np


class MeroboundsError(Exception):
    """Base class for every error this package raises deliberately."""


class BadParameter(MeroboundsError, ValueError):
    """A scalar argument lies outside its documented domain."""


class BadRadius(BadParameter):
    """A radius lies outside (0, 1], or (0, 1) for the f and f/z integrals without a pole."""


class RadiusBeyondPole(BadParameter):
    """A radius reaches or passes the pole, leaving the validity disk."""


class PoleMismatch(MeroboundsError, ValueError):
    """The declared pole is not a root of the stored z/f series."""


class NoPole(MeroboundsError, ValueError):
    """The operation requires a function with a declared pole."""


class ClassMismatch(MeroboundsError, ValueError):
    """Function data is inconsistent with the asserted function class."""


# ---- domain validators: each test reads ``not <in range>``, so NaN fails it too ----

def check_pole(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise BadParameter(f"pole location {float(p)!r} outside (0, 1)")


def check_radius(r: float) -> None:
    """One radius in (0, 1], as a number: an array, even of one element, is
    BadParameter.  The range test runs first, so a float in range pays for
    one comparison and one type test."""
    try:
        if 0.0 < r <= 1.0 and not isinstance(r, np.ndarray):
            return
    except ValueError:  # an array of several radii has no one truth value
        pass
    if isinstance(r, np.ndarray):
        raise BadParameter(f"a radius must be a number, not an array of shape {r.shape}")
    check_radii((r,))


def check_lambda(lam: float) -> None:
    if not 0.0 < lam <= 1.0:
        raise BadParameter(f"lambda {float(lam)!r} outside (0, 1]")


def check_count(count: int, minimum: int, message: str) -> None:
    """An integer (numpy integers included) of at least ``minimum``."""
    try:
        operator.index(count)
    except TypeError:
        raise BadParameter(f"{message}; {count!r} is not an integer") from None
    if count < minimum:
        raise BadParameter(message)


def check_radii(radii, inside: bool = False, pole: float | None = None) -> np.ndarray:
    """The one radius rule: ``radii`` as a one-dimensional float64 array, each
    in (0, 1] or, if ``inside``, below the pole (below 1 without one), checked
    in one pass.  The pole is not checked again: its class spec or function
    checked it.  BadParameter unless one-dimensional; else, for the first
    radius that fails, RadiusBeyondPole if it lies in (0, 1], BadRadius if not."""
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1:
        raise BadParameter(f"radii must be one-dimensional, not {radii.ndim}-dimensional")
    beyond = inside and pole is not None  # the radius must stay below the pole
    top = pole if beyond else 1.0
    # a plain loop: numpy's elementwise tests cost twice as much on a short grid
    for r in radii.tolist():
        if not (0.0 < r < top if inside else 0.0 < r <= 1.0):
            if beyond and 0.0 < r <= 1.0:
                raise RadiusBeyondPole(f"radius {r!r} reaches the pole at {float(pole)!r}")
            raise BadRadius(f"radius {r!r} outside (0, 1{')' if inside and pole is None else ']'}")
    return radii
