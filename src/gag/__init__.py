"""Computational toolkit for finite operator groupoids satisfying the
left invertive law: law deciders, ideal-like subset families,
intra-regularity witnesses, an executable theorem suite, and exhaustive
enumeration up to isomorphism."""

from .fileformat import (
    ModelFormatError,
    model_from_json_obj,
    model_to_json_obj,
    parse_model,
    parse_models,
    serialize_model,
)
from .fixtures import paper_example, paper_example_text
from .ideals import (
    IdealKind,
    generated_ideal,
    ideal_family,
    is_elementwise_semiprime,
    kind_predicate,
)
from .model import (
    AxiomProfile,
    GammaGroupoid,
    LawCheck,
    all_models,
    axiom_profile,
    is_ag_star_star,
    is_left_invertive,
    is_medial,
    is_paramedial,
    left_identities,
)
from .regularity import (
    IntraRegularityReport,
    IntraWitness,
    format_witness,
    intra_witness,
    is_intra_regular,
)
from .search import (
    HuntResult,
    SearchResult,
    SearchSpec,
    SizeGuardError,
    canonical_model,
    canonicalize,
    count_models,
    enumerate_models,
    find_counterexample,
    find_counterexamples,
)
from .subsets import (
    CarrierMismatchError,
    EmptySubsetError,
    Subset,
    all_nonempty_subsets,
    subset_product,
)
from .theorems import (
    Counterexample,
    TheoremId,
    TheoremReport,
    model_hash,
    revalidate_counterexample,
    run_check,
    run_suite,
    suite_exit_code,
    suite_to_json_obj,
)

__version__ = "0.1.0"
