"""Exact finite-probability engine for deciding whether a selection,
missingness, or perturbation process is ignorable or informative."""

from .exactprob import (
    FiniteDist,
    Kernel,
    bernoulli,
    condition,
    dist_new,
    expectation,
    point_mass,
    product,
    pushforward,
    uniform,
)
from .sampling import (
    ObservationScheme,
    Population,
    SurveyModel,
    WorldState,
    build_joint,
    count_vector,
    expected_distinct_size,
    expected_size,
    inclusion_probabilities,
    indicator_vector,
    observation_distribution,
    observe,
    selection_expectations,
    values_and_mapping,
    values_only,
)
from .designs import (
    census,
    mixture_design,
    poisson,
    select_max,
    srs_wor,
    srs_wr,
    stratified,
)
from .ignorance import (
    Family,
    MarginalFunctional,
    ParameterFunction,
    Predictand,
    atrandomize,
    dirac_fix,
    ignore_model,
    make_split,
    marginal_family,
    phi_set,
    single_arbitrary,
    transform_target,
)
from .inference import (
    ClassificationReport,
    check_distinct,
    check_mar,
    check_oar,
    classify,
    default_estimator,
    likelihood_equivalent,
    posterior_equivalent,
    prepare,
    prepare_rubin,
    rubin_theorem_audit,
    sampling_dist_equivalent,
)
from .mc import McReport, compare_exact_vs_mc, sample_world
from .modelfile import ModelDocument, emit_model, parse_model
from .reports import emit_report, to_jsonable

__all__ = [name for name in dir() if not name.startswith("_")]
