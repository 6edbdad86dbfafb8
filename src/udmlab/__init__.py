"""udmlab: quantum gates as continuous-time open-system dynamics.

Models one- and two-qubit gates as Hamiltonian evolutions, reconstructs
the reduced dynamical maps they induce on each qubit, certifies CPTP and
divisibility properties, tracks mid-gate entanglement along refined time
grids, and audits the separability structure of QFT circuits.
"""

from .tolerances import DEFAULT, Tolerances
from .linalg import *
from .states import *
from .gates import *
from .dynamics import *
from .maps import *
from .circuits import *

__version__ = "0.1.0"
