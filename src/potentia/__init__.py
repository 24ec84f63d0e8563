"""Intensive-valuation toolkit for quantum states at desk scale.

States are trace-one positive Hermitian matrices; powers are projectors
carrying intensities in [0, 1]; experimental arrangements carve a state
into screens and detectors.  On top of that substrate the package offers
the standard battery of purity, separability, and CHSH analyses.
"""

__version__ = "0.1.0"

from . import families, sampling
from .errors import (
    CapacityError,
    DegenerateConditioningError,
    DomainError,
    NoWitnessError,
    ParseError,
    PotentiaError,
    ResidualError,
    ShapeError,
    UnderdeterminedError,
    ValidationError,
)
from .qlin import HermitianSpectrum, commutes, herm_eig, kron, partial_trace, partial_transpose
from .states import (
    BlochPoint,
    DensityOperator,
    MixtureDecomposition,
    PureVector,
    PurityReport,
    abstract_purity,
    alternative_decomposition,
    bloch_from_density,
    density_from_bloch,
    density_from_vector,
    operational_purity,
    operational_purity_exists,
    projective_distance,
    purity_agreement_report,
    shadow,
    spectral_decomposition,
)
from .powers import (
    AxiomReport,
    Context,
    ISAValuation,
    PowerNode,
    PowersGraph,
    actualization_map,
    build_graph,
    check_isa_axioms,
    find_additive_binary_valuation,
    isa_from_density,
    maximal_contexts,
    reconstruct_density,
)
from .arrangements import (
    ChainLink,
    ChainReport,
    DetectorBasis,
    ExperimentalArrangement,
    Factorization,
    change_detectors,
    complexity_chain_check,
    ea_equivalent,
    make_ea,
    multiscreen_effect,
    power_intensity,
    refactor,
    restrict,
)
from .entanglement import (
    SeparabilityVerdict,
    Verdict,
    WernerRegion,
    WitnessOperator,
    check_witness_on_products,
    entropy_additivity_check,
    entropy_criterion,
    majorization_criterion,
    min_pt_eigenvalue,
    ppt_criterion,
    schmidt,
    schmidt_rank,
    von_neumann_entropy,
    werner,
    witness_from_entangled,
)
from .bell import (
    ChshMax,
    CorrelationMatrix,
    MeasurementSetting,
    chsh_max,
    chsh_value,
    classify_regions,
    correlation_matrix,
    werner_classify,
)
from .locc import (
    BranchOutcome,
    CPMap,
    QuantumInstrument,
    apply_instrument,
    is_valid_instrument,
    one_way_local,
    projective_instrument,
)
