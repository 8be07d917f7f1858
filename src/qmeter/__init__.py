"""qmeter: generalized quantum measurements and optimal state estimation.

Model a POVM measurement on a single d-level system through its Kraus
operators, compute the optimal estimates of the pre- and post-measurement
states in closed form, check the information-disturbance tradeoff, and verify
everything against a Haar Monte Carlo oracle.
"""

# ``cli`` is left out so that ``python -m qmeter.cli`` does not find it already imported;
# ``from qmeter import cli`` still loads it.
from . import catalog, estimator, haar, matkernel, measurement
from .errors import (
    DeviceSpecError,
    DimensionMismatch,
    IncompleteDevice,
    InternalConsistencyError,
    NoConvergence,
    NotHermitian,
    NotUnitary,
    OutOfDomain,
    OutcomeOutOfRange,
    QmeterError,
    ShapeMismatch,
    ZeroProbabilityOutcome,
)
from .estimator import (
    EstimatePair,
    FidelityReport,
    RelationCheck,
    best_post_estimate,
    best_pre_estimate,
    check_bound,
    domain_boundary,
    estimate_pair,
    g_post_of_guess,
    g_pre_of_guess,
    is_pure_measurement,
    make_rank_one_device,
    operation_fidelity,
    pure_part,
    tradeoff_bound,
    verify_estimate_relations,
)
from .haar import (
    MonteCarloResult,
    RngStream,
    haar_state,
    haar_states,
    mc_estimation_fidelity,
    mc_fidelities,
    mc_g_post,
    mc_g_pre,
    mc_operation_fidelity,
)
from .matkernel import EigenSystem, hermitian_eig, polar_decompose
from .measurement import BiOrthogonalFactors, Measurement, as_state

__version__ = "0.1.0"
