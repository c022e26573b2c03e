"""Exception types shared across the package."""

import operator


class MeroboundsError(Exception):
    """Base class for every error this package raises deliberately."""


class BadParameter(MeroboundsError, ValueError):
    """A scalar argument lies outside its documented domain."""


class BadRadius(BadParameter):
    """A radius argument lies outside (0, 1]."""


class RadiusBeyondPole(BadParameter):
    """A radius reaches or passes the pole, leaving the validity disk."""


class NearZeroConstantTerm(MeroboundsError, ArithmeticError):
    """Series reciprocal requested for a constant term too close to zero."""


class OrderUnderflow(MeroboundsError, ValueError):
    """More derivatives requested than the truncation order supports."""


class PoleMismatch(MeroboundsError, ValueError):
    """The declared pole is not a root of the stored z/f series."""


class NoPole(MeroboundsError, ValueError):
    """The operation requires a function with a declared pole."""


class ClassMismatch(MeroboundsError, ValueError):
    """Function data is inconsistent with the asserted function class."""


# ---- domain validators: each test reads ``not <in range>``, so NaN fails it too ----

def check_pole(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise BadParameter(f"pole location {p!r} outside (0, 1)")


def check_radius(r: float) -> None:
    if not 0.0 < r <= 1.0:
        raise BadRadius(f"radius {r!r} outside (0, 1]")


def check_open_radius(r: float) -> None:
    if not 0.0 < r < 1.0:
        raise BadRadius(f"radius {r!r} outside (0, 1)")


def check_lambda(lam: float) -> None:
    if not 0.0 < lam <= 1.0:
        raise BadParameter(f"lambda {lam!r} outside (0, 1]")


def check_count(count: int, minimum: int, message: str) -> None:
    """An integer (numpy integers included) of at least ``minimum``."""
    try:
        operator.index(count)
    except TypeError:
        raise BadParameter(f"{message}; {count!r} is not an integer") from None
    if count < minimum:
        raise BadParameter(message)


def check_order(order: int) -> None:
    check_count(order, 2, "order must be at least 2 to hold the z/f polynomial")


def check_inside_pole(r: float, p: float) -> None:
    """A radius in (0, 1] strictly inside the pole, where expansions of f converge."""
    check_pole(p)
    if not 0.0 < r <= 1.0:
        raise BadRadius(f"radius {r!r} outside (0, 1]")
    if not r < p:
        raise RadiusBeyondPole(f"radius {r!r} reaches the pole at {p!r}")
