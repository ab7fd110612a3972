"""Certified witnesses for the sparse strong Erdos-Hajnal property of
caterpillar subdivisions: every graph yields a high-mass vertex, a high-mass
neighbourhood, an anticomplete pair of high-mass sets, or an induced copy of
the target tree, and every returned witness is re-verified from scratch."""

from .engine import (
    EngineParams,
    Realization,
    Spire,
    TheoremViolation,
    big_piece,
    check_realization,
    extract_copy,
    grow_spire,
    improve,
    initial_blocks,
    paper_epsilon,
    run_trichotomy,
)
from .graphs import (
    Graph,
    VertexSet,
    components,
    connected_order,
    is_anticomplete,
    is_connected,
    neighbours,
)
from .mass import (
    CardinalityMass,
    ChromaticMass,
    MassProvider,
    WeightedMass,
    verify_mass_axioms,
)
from .oracles import (
    brute_best_anticomplete,
    brute_induced_embedding,
    exact_chromatic_number,
    verify_witness,
)
from .trees import (
    CaterpillarTree,
    Chrysalis,
    Nursery,
    butterfly,
    fit_tau,
    is_improvement,
    phi,
    validate_chrysalis,
)
from .witnesses import (
    AnticompletePair,
    HighMassNeighbourhood,
    HighMassVertex,
    InducedCopy,
    Stuck,
    Witness,
    witness_document,
    witness_from_document,
)

__version__ = "0.1.0"

__all__ = [
    "AnticompletePair",
    "CardinalityMass",
    "CaterpillarTree",
    "ChromaticMass",
    "Chrysalis",
    "EngineParams",
    "Graph",
    "HighMassNeighbourhood",
    "HighMassVertex",
    "InducedCopy",
    "MassProvider",
    "Nursery",
    "Realization",
    "Spire",
    "Stuck",
    "TheoremViolation",
    "VertexSet",
    "WeightedMass",
    "Witness",
    "big_piece",
    "brute_best_anticomplete",
    "brute_induced_embedding",
    "butterfly",
    "check_realization",
    "components",
    "connected_order",
    "exact_chromatic_number",
    "extract_copy",
    "fit_tau",
    "grow_spire",
    "improve",
    "initial_blocks",
    "is_anticomplete",
    "is_connected",
    "is_improvement",
    "neighbours",
    "paper_epsilon",
    "phi",
    "run_trichotomy",
    "validate_chrysalis",
    "verify_mass_axioms",
    "verify_witness",
    "witness_document",
    "witness_from_document",
]
