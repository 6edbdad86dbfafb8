"""Numerical tolerances used across the toolkit.

Everything runs in double precision on dense matrices of dimension <= 256,
which leaves large headroom; the defaults below are fixed globally rather
than tuned per call site. The CP tolerance is looser than the state
tolerances because pseudo-inverse composition amplifies noise. Every
tolerance must be a finite positive real number, and not a boolean,
whoever sets it.
"""
import math
import numbers
from dataclasses import dataclass, asdict, replace


def _check_tolerance(value, what: str) -> None:
    """Reject a tolerance that is not a finite real > 0; what names it in the message.

    Booleans are refused although Python counts them as integers: True would
    read as a tolerance of 1.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be finite and > 0, got {value!r}")


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
            _check_tolerance(value, f"tolerance {name}")

    def as_dict(self) -> dict:
        return asdict(self)

    def override(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT = Tolerances()
