"""Translatability analysis for families of quantum states given by Gram
matrices: validation, overlap-graph recognition, decision, witness
synthesis, and numeric verification."""

from .texts import (
    BadDiagonal,
    DuplicateStates,
    NonFinite,
    NotHermitian,
    NotPSD,
    SizeMismatch,
    StateEmbedding,
    Text,
    TextError,
    TextProperties,
    embed_text,
    gram_of,
    null_index_set,
    subtext,
    text_properties,
    texts_equivalent,
    validate_text,
)
from .graphs import (
    ForbiddenWitness,
    GraphClass,
    GraphError,
    InvalidShape,
    NotConnected,
    NotWellSplit,
    RecognitionResult,
    SimpleGraph,
    Splitting,
    TooLarge,
    WellSplitParts,
    WellSplitShape,
    all_splittings,
    connected_components,
    graph_of_text,
    graphs_isomorphic,
    induced_subgraph,
    make_graph,
    maximal_cliques,
    overlap_mask,
    parameterize,
    read_well_split,
    recognize,
    shape_to_graph,
    split_by_definition,
)
from .translation import (
    DegenerateB,
    DimensionMismatch,
    GramMismatch,
    Infeasible,
    QOutOfRange,
    TranslationError,
    TranslationWitness,
    WitnessReport,
    Q_from_q,
    build_omega,
    check_witness,
    overlap_residual,
    q_from_Q,
    restrict_witness,
    synthesize_unitary,
    tablet_overlaps,
    witness_from_overlaps,
)
from .classify import (
    BorderlineSignature,
    Decision,
    EigenSignature,
    HasOrthogonalPair,
    decide_translatable,
    decide_zero_translatable,
    hadamard_inverse_signature,
)
from .synth import (
    NotClassical,
    RealizeResult,
    SearchBudgetExhausted,
    SynthError,
    Untranslatable,
    clone_classical,
    realize_graph,
    translate,
)
from .generators import GenSpec, InfeasibleSpec, OracleReport, gen_text, oracle_feasible

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
