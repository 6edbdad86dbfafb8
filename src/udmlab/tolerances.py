"""Numerical tolerances, and the rules for scalar, name and sequence arguments.

Everything runs in double precision on dense matrices of dimension <= 256,
which leaves large headroom; the defaults below are fixed globally rather
than tuned per call site. The CP tolerance is looser than the state
tolerances because pseudo-inverse composition amplifies noise. Each
scalar argument of a public entry point passes once through ``_real``
(with the open bounds of a time that must follow another) or ``_integer``
(with the closed bounds of a count, an index or a qubit of a pair), each
name from a table through ``_choice`` and each sequence through
``_sequence``, and the caller keeps the value returned. None takes a
boolean: True would read as a time, tolerance or qubit of 1. Every frozen
value sets what it checked or derived through ``_hold``.
"""
import numbers
import operator
import sys
from collections.abc import Mapping, Set
from dataclasses import dataclass, replace

import numpy as np


def _real(value, what: str, lo: float | None = None, hi: float | None = None) -> float:
    """value as a float: a finite real number, in the open interval (lo, hi) where bounds
    are given; what names it in the message.

    numpy booleans are not numbers.Real. The bound is False for nan and inf and
    exact for integers of any size, where math.isfinite(10**400) overflows.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        finite = abs(value) <= sys.float_info.max
        if finite and (lo is None or value > lo) and (hi is None or value < hi):
            return float(value)
    if lo is None and hi is None:
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    bound = f"< {hi}" if lo is None else f"> {lo}" if hi is None else f"in ({lo}, {hi})"
    raise ValueError(f"{what} must be finite and {bound}, got {value!r}")


def _integer(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as a Python int, at least lo when it is given and at most hi when both are;
    numpy integers pass, booleans and floats do not. The one rule for a count, an index
    or a qubit of a pair (1 the left tensor factor), whose bounds are (1, 2)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if lo is not None and (count < lo or hi is not None and count > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{what} must be {bound}, got {count}")
    return count


def _choice(value, options, what: str) -> str:
    """value, a str that is one of options (a table's names); any other value,
    an unhashable one included, is refused alike."""
    if isinstance(value, str) and value in options:
        return value
    raise ValueError(f"{what} must be one of {sorted(options)}, got {value!r}")


def _sequence(value, what: str, length: int | None = None) -> tuple:
    """value as a tuple: anything tuple() takes but a set or a mapping, whose order the
    caller did not write; of the given length when one is given."""
    try:
        if isinstance(value, (Set, Mapping)):
            raise TypeError
        items = tuple(value)
        if length is None or len(items) == length:
            return items
    except TypeError:
        pass
    size = "" if length is None else f" of length {length}"
    raise ValueError(f"{what} must be a sequence{size}, got {value!r}")


def _hold(value, **attrs) -> None:
    """Set each attribute of the frozen value, each ndarray among them made read-only:
    the one way a value holds what it checked or derived. It never copies, so a caller
    passes a copy of any array its own caller may still hold."""
    for name, attr in attrs.items():
        if isinstance(attr, np.ndarray):
            attr.flags.writeable = False
        object.__setattr__(value, name, attr)


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-10   # max-abs deviation of m - m^dag on inputs
    unitarity: float = 1e-10     # max-abs deviation of u u^dag - 1
    reconstruction: float = 1e-9  # eig/svd reconstruction identities
    positivity: float = 1e-9     # slack on smallest density-matrix eigenvalue
    separability: float = 1e-9   # separability verdicts; product states: ||rho - rho_1 (x) rho_2||_F
    entanglement: float = 1e-6   # "entangled at t1" threshold on negativity
    cp: float = 1e-7             # Choi-eigenvalue slack for CP verdicts
    pinv_cutoff: float = 1e-10   # relative singular-value cutoff

    def __post_init__(self):
        _hold(self, **{k: _real(v, f"tolerance {k}", lo=0) for k, v in self.as_dict().items()})

    def as_dict(self) -> dict:
        return self.__dict__.copy()  # the fields in order, each a float

    def override(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs) if kwargs else self


DEFAULT = Tolerances()
