"""Partial standard quantum process tomography in the matrix-unit basis.

Simulates the reconstruction of arbitrary individual elements of a
channel's process (chi) matrix from one measurement setting for diagonal
elements and at most sixteen for off-diagonal ones, independent of the
system dimension, and checks every reconstruction against a reference chi
computed directly from the channel's Kraus operators.
"""

from .basis import (
    HermitianBasis,
    PureStateExpansion,
    basis_state,
    chi_choi_to_pauli,
    chi_pauli_to_choi,
    choi_basis,
    choi_op,
    expand_choi_four,
    pauli_basis,
    pauli_choi_unitary,
    sud_generators,
    superposition_states,
)
from .channels import (
    ChannelFormatError,
    QuantumChannel,
    ValidationReport,
    apply_channel,
    apply_chi,
    assert_density_matrix,
    channel_from_json,
    channel_to_json,
    chi_oracle,
    haar_isometry,
    kron_channel,
    load_channel,
    preset_channel,
    random_density_matrix,
    save_channel,
    validate_cptp,
    PRESET_NAMES,
)
from .measure import (
    BackendConfig,
    MeasurementOutcome,
    MeasurementSetting,
    PhysicalityError,
    exact_expectation,
    input_state_set,
    measure_setting,
    measure_table,
    sampled_expectation,
    tp_complete,
)
from .tomo import (
    BetaPermutation,
    ChiElementEstimate,
    GhzProfile,
    MeasurementPlan,
    QuditIndexMap,
    SqptResult,
    beta_entry,
    beta_permutation,
    chi_from_json,
    chi_from_lambda,
    chi_index,
    chi_to_json,
    full_sqpt,
    ghz_profile,
    lambda_from_chi,
    lambda_index,
    lambda_oracle,
    plan_element,
    reconstruct_element,
)

__version__ = "0.1.0"
