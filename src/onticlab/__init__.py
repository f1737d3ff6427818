"""Verification lab for hidden-variable models of a single qubit."""

from .bell import (
    BipartiteState,
    SteeredEnsemble,
    bob_reduced_density,
    make_max_entangled,
    nonlocality_witness,
    steer,
    steering_basis,
)
from .checks import (
    CheckReport,
    EnsembleDistribution,
    LabeledEstimate,
    OmegaWitness,
    audit_implication_chain,
    check_born_reproduction,
    check_max_psi_epistemic,
    check_measurement_noncontextuality,
    check_outcome_determinism,
    check_preparation_noncontextuality,
    classify_ontology,
    ensemble_distribution,
    find_omega_witness,
    overlap_integral,
)
from .errors import PreconditionError
from .integrate import (
    McConfig,
    McEstimate,
    QuadratureGrid,
    mc_expectation,
    mc_expectations,
    sphere_quadrature,
    substream_key,
    tv_distance,
    uniform_sphere_batch,
    uniform_sphere_sampler,
)
from .models import (
    BellMerminModel,
    ConstantResponseModel,
    KochenSpeckerModel,
    LabelReadingModel,
    OnticState,
    OntologicalModel,
    PairPoint,
    SinglePoint,
    StateCatalog,
    catalog_from_states,
    default_catalog,
    make_model,
    random_states,
    step,
)
from .qubit import (
    BlochVector,
    DensityOperator,
    Ensemble,
    MeasurementBasis,
    PureState,
    amplitudes_to_bloch,
    bloch_to_amplitudes,
    born_probability,
    density_operators_equal,
    ensemble_density_operator,
    half_half_mixture,
    orthogonal_complement,
)

__version__ = "0.1.0"
