"""Numerical tolerances used across the toolkit, and the one rule for scalar arguments.

Everything runs in double precision on dense matrices of dimension <= 256,
which leaves large headroom; the defaults below are fixed globally rather
than tuned per call site. The CP tolerance is looser than the state
tolerances because pseudo-inverse composition amplifies noise. Each
scalar argument of a public entry point passes once through ``_real``,
``_integer`` or ``_which``, and the caller keeps the value returned. None
takes a boolean: True would read as a time, tolerance or qubit of 1.
"""
import numbers
import operator
import sys
from dataclasses import dataclass, asdict, replace


def _real(value, what: str, positive: bool = False) -> float:
    """value as a float: a finite real number, > 0 when positive; what names it in the message.

    numpy booleans are not numbers.Real. The bound is False for nan and inf and
    exact for integers of any size, where math.isfinite(10**400) overflows.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max and (value > 0 or not positive):
            return float(value)
    if positive:
        raise ValueError(f"{what} must be finite and > 0, got {value!r}")
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def _integer(value, what: str) -> int:
    """value as a Python int; numpy integers pass, booleans and floats do not."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _which(value, what: str) -> int:
    """value as 1 or 2: a qubit of a pair (1 the left tensor factor) or a count of qubits."""
    which = _integer(value, what)
    if which not in (1, 2):
        raise ValueError(f"{what} must be 1 or 2, got {which}")
    return which


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-10   # max-abs deviation of m - m^dag on inputs
    unitarity: float = 1e-10     # max-abs deviation of u u^dag - 1
    reconstruction: float = 1e-9  # eig/svd reconstruction identities
    positivity: float = 1e-9     # slack on smallest density-matrix eigenvalue
    separability: float = 1e-9   # pure-state separability verdicts
    entanglement: float = 1e-6   # "entangled at t1" threshold on negativity
    cp: float = 1e-7             # Choi-eigenvalue slack for CP verdicts
    pinv_cutoff: float = 1e-10   # relative singular-value cutoff

    def __post_init__(self):
        for name, value in self.as_dict().items():
            object.__setattr__(self, name, _real(value, f"tolerance {name}", positive=True))

    def as_dict(self) -> dict:
        return asdict(self)

    def override(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT = Tolerances()
