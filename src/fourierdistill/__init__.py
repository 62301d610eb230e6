"""Fourier-state distillation: exact simulation, sparse spectral analysis,
gate-level circuits, and fault-tolerant resource accounting."""

from .arbitrary import (
    PreparedKState,
    default_truncate_bits,
    distill_k,
)
from .circuits import (
    Gate,
    GateCircuit,
    RegisterLayout,
    apply_circuit,
    approx_state_circuit,
    basis_images,
    build_adder_circuit,
    build_distillation_circuit,
    clone_fourier_state,
    extract_register,
    modular_add_oracle,
)
from .distill import (
    DistillationOutcome,
    ProtocolResult,
    ProtocolSchedule,
    SparseSpectrum,
    plan_schedule,
    rounds_required,
    run_protocol_exact,
    run_protocol_sparse,
    sparse_extend,
    sparse_symmetric_round,
)
from .errors import CapacityError, DegenerateInputError, PrecisionWarning
from .fourier import (
    StateVector,
    amplitude_cap,
    fidelity_threshold,
    initial_state_weight,
    pure_fourier_state,
    series_weight,
    to_fourier_basis,
)
from .resources import (
    ComparisonRow,
    ResourceReport,
    adder_toffoli_count,
    comparison_table,
    epsilon_f_kickback,
    expected_cost_monte_carlo,
    expected_cost_recursion,
    resource_reports,
    t_sequence_cost,
    t_sequence_cost_bits,
    toffoli_capped,
)

__version__ = "0.1.0"
