"""Intensive-valuation toolkit for quantum states at desk scale.

States are trace-one positive Hermitian matrices; powers are projectors
carrying intensities in [0, 1]; experimental arrangements carve a state
into screens and detectors.  On top of that substrate the package offers
the standard battery of purity, separability, and CHSH analyses.

``import potentia`` loads no submodule: each public name is imported from
its defining module on first use (PEP 562), then kept in the package.
"""

import importlib

__version__ = "0.1.0"

#: Defining module -> the public names it exports through the package.
_EXPORTS = {
    "errors": (
        "CapacityError", "DegenerateConditioningError", "DomainError", "NoWitnessError",
        "ParseError", "PotentiaError", "ResidualError", "ShapeError", "UnderdeterminedError",
        "ValidationError",
    ),
    "qlin": (
        "DetectorBasis", "Factorization", "commutes", "kron", "partial_trace", "partial_transpose",
    ),
    "states": (
        "BlochPoint", "DensityOperator", "MixtureDecomposition", "PureVector", "abstract_purity",
        "alternative_decomposition", "bloch_from_density", "density_from_bloch",
        "density_from_vector", "operational_purity", "operational_purity_exists",
        "projective_distance", "shadow", "spectral_decomposition",
    ),
    "powers": (
        "AxiomReport", "Context", "ISAValuation", "PowerNode", "PowersGraph", "actualization_map",
        "build_graph", "check_isa_axioms", "find_additive_binary_valuation", "isa_from_density",
        "maximal_contexts", "reconstruct_density",
    ),
    "arrangements": (
        "ChainLink", "ChainReport", "ExperimentalArrangement", "change_detectors",
        "complexity_chain_check", "ea_equivalent", "make_ea", "multiscreen_effect",
        "power_intensity", "refactor", "restrict",
    ),
    "entanglement": (
        "SeparabilityVerdict", "Verdict", "WernerRegion", "WitnessOperator",
        "check_witness_on_products", "entropy_additivity_check", "marginal_verdicts",
        "min_pt_eigenvalue", "ppt_criterion", "schmidt", "schmidt_rank", "von_neumann_entropy",
        "werner", "witness_from_entangled",
    ),
    "bell": (
        "ChshMax", "CorrelationMatrix", "MeasurementSetting", "chsh_max", "chsh_value",
        "correlation_matrix", "region",
    ),
    "locc": (
        "BranchOutcome", "CPMap", "QuantumInstrument", "apply_instrument", "is_valid_instrument",
        "one_way_local", "projective_instrument",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
#: Submodules that resolve as attributes of the package.
_SUBMODULES = (*_EXPORTS, "families", "sampling")

__all__ = sorted([*_HOME, "families", "sampling"])


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
