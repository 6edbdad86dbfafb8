"""udmlab: quantum gates as continuous-time open-system dynamics.

Models one- and two-qubit gates as Hamiltonian evolutions, reconstructs
the reduced dynamical maps they induce on each qubit, certifies CPTP and
divisibility properties, tracks mid-gate entanglement along refined time
grids, and audits the separability structure of QFT circuits.
"""

from .tolerances import DEFAULT, Tolerances
from .linalg import (
    partial_trace,
    matexp_hermitian,
    pseudo_inverse,
)
from .states import (
    PureState,
    DensityMatrix,
    named_state,
    product_state,
    densify,
    pure_entanglement,
    negativity,
    trace_distance,
)
from .gates import (
    Gate,
    gate_from_generator,
    generator_from_unitary,
    c_phase,
    local_phase,
    x_gate,
    hadamard,
    swap_gate,
    identity_gate,
    apply,
    is_entangling,
    operator_schmidt_values,
    equal_up_to_phase,
)
from .dynamics import (
    TimeGrid,
    Trajectory,
    ProfilePoint,
    evolve_trajectory,
    entanglement_profile,
    find_entangled_instant,
)
from .maps import (
    DynamicalMap,
    ChoiMatrix,
    KrausSet,
    IntermediateMapResult,
    WitnessReport,
    induced_map,
    apply_map,
    choi,
    is_cptp,
    kraus_decompose,
    intermediate_map,
    udm_witness_subinterval,
    local_pair_maps,
    unitary_superoperator,
)
from .circuits import (
    PlacedGate,
    Circuit,
    AuditRecord,
    BlockAudit,
    build_qft,
    run_circuit,
    circuit_unitary,
    dft_matrix,
    circuit_to_dict,
)

__version__ = "0.1.0"
