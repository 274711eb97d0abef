"""Likelihood tables, the missing-at-random conditions, equivalence of
inferences, and the ignorable/informative classifier.

The classifier compares inference in the original family against inference
in the family obtained after ignoring the nuisance process:

  - likelihood based: the two likelihood tables over the shared target
    codomain must be exactly proportional, with one positive constant
    (jointly over all positive-mass observations in uniform mode, at the
    given observation in local mode);
  - frequentist estimation: for every target value, the set of exact
    estimator distributions over the preimage must be the same in both
    families;
  - Bayesian: the sets of posterior target distributions must coincide.

Reports always carry the comparisons performed, never a bare verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactprob import (
    EngineError,
    FiniteDist,
    canonical_key,
    condition,
    dist_new,
    pushforward,
    uniform,
)
from .ignorance import (
    Family,
    NuisancePolicy,
    Predictand,
    ProcessSplit,
    dirac_fix,
    ignore_model,
    make_split,
    target_values,
    transform_target,
    variation_independent,
)
from .sampling import (
    ObservationScheme,
    SurveyModel,
    VALUES_AND_MAPPING,
    VALUES_MAPPING_DESIGN,
    values_and_mapping,
)


class EmptyTables(EngineError):
    """Likelihood tables with no positive entry on either side."""


class ZeroEvidence(EngineError):
    """The observation has zero marginal mass under every prior."""


class NotRubinShape(EngineError):
    """The model/observation pair is not in the signal-plus-missingness
    shape the Rubin-style checks require."""


LIKELIHOOD_BASED = "likelihood"
FREQUENTIST = "frequentist"
BAYESIAN = "bayes"

IGNORABLE = "ignorable"
INFORMATIVE = "informative"


@dataclass(frozen=True)
class LikelihoodTable:
    """Exact likelihood of each family point for a fixed observation."""

    x: object
    entries: tuple  # ((point, Fraction), ...)

    def as_dict(self) -> dict:
        return dict(self.entries)


def likelihood(family_or_model, x, scheme: ObservationScheme | None = None) -> LikelihoodTable:
    """Mass of {x} under the observation distribution of each grid point.

    A malformed x (wrong shape for the scheme, values outside the
    alphabet) is rejected; a well-formed but impossible x simply gets a
    zero table."""
    if isinstance(family_or_model, SurveyModel) and scheme is not None:
        from .sampling import validate_observation

        validate_observation(family_or_model, scheme, x)
    family = _as_family(family_or_model, scheme)
    xk = canonical_key(x)
    entries = tuple(
        (p, family.observation_masses(p).get(xk, Fraction(0))) for p in family.points
    )
    return LikelihoodTable(x=x, entries=entries)


def _as_family(obj, scheme):
    if isinstance(obj, Family):
        return obj
    if isinstance(obj, SurveyModel):
        if scheme is None:
            raise EngineError("an observation scheme is required with a model")
        return Family.from_survey_model(obj, scheme)
    raise EngineError(f"expected a Family or SurveyModel, got {type(obj).__name__}")


@dataclass(frozen=True)
class Witness:
    """One comparison performed by an equivalence test."""

    kind: str
    equal: bool
    detail: tuple  # ((name, value), ...) canonical-value payload


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    alpha: Fraction | None
    witnesses: tuple


def _coarse_table(family: Family, values, xs) -> dict:
    """table[(value_key, x_key)] = sup over the target preimage of the
    observation mass; the likelihood of a coarsened parameter."""
    table = {}
    for p in family.points:
        vk = canonical_key(values[p])
        masses = family.observation_masses(p)
        for _x, xk in xs:
            key = (vk, xk)
            m = masses.get(xk, Fraction(0))
            if key not in table or m > table[key]:
                table[key] = m
    return table


def likelihood_equivalent(
    original: Family,
    ignored: Family,
    x,
    target,
    target_star=None,
) -> EquivalenceResult:
    """Exact proportionality of the two likelihood tables.

    With x=None the proportionality constant must be shared across every
    positive-mass observation of either family (uniform reading); with a
    concrete x only that observation's tables are compared (local reading).
    """
    if target_star is None:
        target_star = transform_target(target, original, ignored)
    va = target_values(target, original)
    vb = target_values(target_star, ignored)
    if x is not None:
        xs = [(x, canonical_key(x))]
    else:
        keyed = {}
        for fam in (original, ignored):
            for o in fam.observation_support():
                keyed.setdefault(canonical_key(o), o)
        xs = [(keyed[k], k) for k in sorted(keyed)]
    table_a = _coarse_table(original, va, xs)
    table_b = _coarse_table(ignored, vb, xs)
    keys = sorted(set(table_a) | set(table_b))
    reprs = {}
    for p in original.points:
        reprs.setdefault(canonical_key(va[p]), va[p])
    for q in ignored.points:
        reprs.setdefault(canonical_key(vb[q]), vb[q])
    xs_by_key = dict((k, o) for o, k in xs)

    alpha = None
    violation = None
    any_positive = False
    for key in keys:
        a = table_a.get(key, Fraction(0))
        b = table_b.get(key, Fraction(0))
        if a == 0 and b == 0:
            continue
        any_positive = True
        if a == 0 or b == 0:
            violation = (key, a, b)
            break
        ratio = b / a
        if alpha is None:
            alpha = ratio
        elif ratio != alpha:
            violation = (key, a, b)
            break
    if not any_positive:
        raise EmptyTables("observation has zero mass in both families")

    witnesses = [
        Witness(
            kind="likelihood_tables",
            equal=violation is None,
            detail=(
                ("original", _table_payload(table_a, reprs, xs_by_key)),
                ("ignored", _table_payload(table_b, reprs, xs_by_key)),
            ),
        )
    ]
    if violation is None:
        return EquivalenceResult(True, alpha, tuple(witnesses))
    key, a, b = violation
    witnesses.append(
        Witness(
            kind="proportionality_violation",
            equal=False,
            detail=(
                ("target_value", reprs[key[0]]),
                ("observation", xs_by_key[key[1]]),
                ("original_mass", a),
                ("ignored_mass", b),
                ("alpha_so_far", alpha),
            ),
        )
    )
    return EquivalenceResult(False, None, tuple(witnesses))


def _table_payload(table, reprs, xs_by_key):
    return tuple(
        ((reprs[vk], xs_by_key[xk]), mass)
        for (vk, xk), mass in sorted(table.items())
    )


def sampling_dist_equivalent(
    original: Family,
    ignored: Family,
    estimator,
    target,
    target_star=None,
) -> EquivalenceResult:
    """Set equality, per target value, of exact estimator distributions."""
    if target_star is None:
        target_star = transform_target(target, original, ignored)
    va = target_values(target, original)
    vb = target_values(target_star, ignored)
    reprs = {}
    groups_a: dict = {}
    groups_b: dict = {}
    for p in original.points:
        k = canonical_key(va[p])
        reprs.setdefault(k, va[p])
        d = pushforward(original.observation_dist(p), estimator)
        groups_a.setdefault(k, {})[canonical_key(d)] = d
    for q in ignored.points:
        k = canonical_key(vb[q])
        reprs.setdefault(k, vb[q])
        d = pushforward(ignored.observation_dist(q), estimator)
        groups_b.setdefault(k, {})[canonical_key(d)] = d
    witnesses = []
    equivalent = True
    for k in sorted(reprs):
        da = groups_a.get(k, {})
        db = groups_b.get(k, {})
        equal = set(da) == set(db)
        equivalent = equivalent and equal
        witnesses.append(
            Witness(
                kind="estimator_distribution_sets",
                equal=equal,
                detail=(
                    ("target_value", reprs[k]),
                    ("original", tuple(da[j] for j in sorted(da))),
                    ("ignored", tuple(db[j] for j in sorted(db))),
                ),
            )
        )
    return EquivalenceResult(equivalent, None, tuple(witnesses))


def _posterior_target_dist(family: Family, prior: FiniteDist, target, x) -> FiniteDist | None:
    """Posterior distribution of the target given X=x, or None when the
    evidence is zero under this prior."""
    xk = canonical_key(x)
    weighted = []
    for p, qp in prior.items:
        lik = family.observation_masses(p).get(xk, Fraction(0))
        if qp * lik > 0:
            weighted.append((p, qp * lik))
    total = sum((w for _, w in weighted), Fraction(0))
    if total == 0:
        return None
    posterior = dist_new([(p, w / total) for p, w in weighted])
    if isinstance(target, Predictand):
        pairs = []
        for p, w in posterior.items:
            law = condition(
                family.laws[p], lambda wd, fn=family.obs_fns[p]: canonical_key(fn(wd)) == xk
            )
            pairs.extend((target.fn(wd), w * m) for wd, m in law.items)
        return dist_new(pairs)
    values = target_values(target, family)
    return pushforward(posterior, lambda p: values[p])


def posterior_equivalent(
    original: Family,
    ignored: Family,
    priors,
    priors_star,
    target,
    x,
    target_star=None,
) -> EquivalenceResult:
    """Set equality of posterior target distributions across the prior sets.

    Priors with zero evidence at x admit no posterior and are excluded; if
    every original-side prior has zero evidence the inference is impossible
    and ZeroEvidence is raised.
    """
    if target_star is None:
        target_star = transform_target(target, original, ignored)
    set_a: dict = {}
    for q in priors:
        d = _posterior_target_dist(original, q, target, x)
        if d is not None:
            set_a[canonical_key(d)] = d
    if not set_a:
        raise ZeroEvidence("observation has zero mass under every prior")
    set_b: dict = {}
    for q in priors_star:
        d = _posterior_target_dist(ignored, q, target_star, x)
        if d is not None:
            set_b[canonical_key(d)] = d
    equal = set(set_a) == set(set_b)
    witness = Witness(
        kind="posterior_sets",
        equal=equal,
        detail=(
            ("observation", x),
            ("original", tuple(set_a[k] for k in sorted(set_a))),
            ("ignored", tuple(set_b[k] for k in sorted(set_b))),
        ),
    )
    return EquivalenceResult(equal, None, (witness,))


def check_distinct(grid) -> bool:
    """Variation independence of the two parameter coordinates on the grid."""
    grid = tuple(grid)
    return variation_independent(lambda g: g[0], lambda g: g[1], grid)


# ---------------------------------------------------------------------------
# Rubin-shape machinery: signal + value-dependent missingness, observation
# exposing the selected units and their values.
# ---------------------------------------------------------------------------


class _NotConstant:
    pass


_NOT_CONSTANT = _NotConstant()


def _z_of_signal(m: SurveyModel):
    """The design-variable value as a function of the signal.

    Rubin-style checks need the selection mass given y alone, so z must be
    a deterministic function of y across the whole family; the function is
    extended to structural completions via the z-contains-y convention or
    a constant z."""
    table = {}
    constant = None
    constant_set = False
    for theta in m.thetas:
        for (y, z), _w in m.signal_law[theta].items:
            yk = canonical_key(y)
            zk = canonical_key(z)
            if yk in table and canonical_key(table[yk]) != zk:
                raise NotRubinShape("design variable is not a function of the signal")
            table[yk] = z
            if not constant_set:
                constant, constant_set = z, True
            elif constant is not _NOT_CONSTANT and canonical_key(constant) != zk:
                constant = _NOT_CONSTANT
    def z_of(y):
        yk = canonical_key(y)
        if yk in table:
            return table[yk]
        if m.z_contains_y:
            return y
        if constant is not _NOT_CONSTANT:
            return constant
        raise NotRubinShape(f"cannot extend the design variable to signal {y!r}")
    return z_of


def _selection_mass(m: SurveyModel, z_of, phi, y, r) -> Fraction:
    return m.design_for(phi).get(z_of(y)).mass(r)


def _extract_values_and_mapping(scheme: ObservationScheme, x):
    if scheme.kind not in (VALUES_AND_MAPPING, VALUES_MAPPING_DESIGN):
        raise NotRubinShape(
            "the observation scheme must expose the selection mapping"
        )
    values, mapping = x[0], x[1]
    return tuple(values), tuple(mapping)


def _completions(m: SurveyModel, fixed: dict):
    """All signals from the alphabet agreeing with the fixed coordinates."""
    free = [i for i in range(m.population.size) if i not in fixed]
    for combo in itertools.product(m.alphabet, repeat=len(free)):
        y = [None] * m.population.size
        for i, v in fixed.items():
            y[i] = v
        for i, v in zip(free, combo):
            y[i] = v
        yield tuple(y)


def _observed_constraints(m: SurveyModel, values, mapping) -> dict | None:
    """Fixed signal coordinates implied by the observed draws, or None when
    the same unit was drawn with two different values (impossible x)."""
    fixed: dict = {}
    for v, k in zip(values, mapping):
        i = m.population.index(k)
        if i in fixed and canonical_key(fixed[i]) != canonical_key(v):
            return None
        fixed[i] = v
    return fixed


def _phi_points(m: SurveyModel):
    return m.phis if m.phis else (None,)


def check_mar(
    m: SurveyModel,
    x,
    scheme: ObservationScheme | None = None,
    variant: str = "local",
) -> bool:
    """Missing at random at the observed (mapping, values).

    For every nuisance grid point there must be one constant equal to the
    selection mass of the observed mapping across every signal completion
    compatible with the observed values.  The uniform variant requires the
    local condition at every positive-mass observation.
    """
    scheme = scheme or values_and_mapping()
    if variant == "uniform":
        observations = Family.from_survey_model(m, scheme).observation_support()
        return all(check_mar(m, o, scheme, "local") for o in observations)
    values, mapping = _extract_values_and_mapping(scheme, x)
    z_of = _z_of_signal(m)
    fixed = _observed_constraints(m, values, mapping)
    if fixed is None:
        return True
    for phi in _phi_points(m):
        masses = {
            _selection_mass(m, z_of, phi, y, mapping) for y in _completions(m, fixed)
        }
        if len(masses) > 1:
            return False
    return True


def check_oar(
    m: SurveyModel,
    x,
    scheme: ObservationScheme | None = None,
    complementation=None,
) -> bool:
    """Observed at random at the observed mapping.

    For every nuisance point and every value of the unobserved signal part,
    the selection mass of the observed mapping must not depend on the
    observed part.  `complementation` names the unobserved coordinates;
    the default is every unit outside the image of the mapping.
    """
    scheme = scheme or values_and_mapping()
    _values, mapping = _extract_values_and_mapping(scheme, x)
    if complementation is None:
        image = set(mapping)
        unobserved = [
            i for i, k in enumerate(m.population.labels) if k not in image
        ]
    else:
        unobserved = [m.population.index(k) for k in complementation(mapping)]
    z_of = _z_of_signal(m)
    for phi in _phi_points(m):
        for u0 in itertools.product(m.alphabet, repeat=len(unobserved)):
            fixed = dict(zip(unobserved, u0))
            masses = {
                _selection_mass(m, z_of, phi, y, mapping)
                for y in _completions(m, fixed)
            }
            if len(masses) > 1:
                return False
    return True


@dataclass(frozen=True)
class TheoremAudit:
    theorem: str
    hypothesis_true: bool
    conclusion_true: bool
    notes: tuple = ()

    def counterexample(self) -> bool:
        return self.hypothesis_true and not self.conclusion_true


@dataclass(frozen=True)
class RubinAuditReport:
    x: object
    mar: bool
    oar: bool
    distinct: bool
    audits: tuple

    def audit(self, name: str) -> TheoremAudit:
        for a in self.audits:
            if a.theorem == name:
                return a
        raise KeyError(name)


def rubin_theorem_audit(
    m: SurveyModel,
    x,
    scheme: ObservationScheme | None = None,
    statistic=None,
) -> RubinAuditReport:
    """Evaluate hypotheses and conclusions of the classical missing-data
    theorems by exact enumeration; records the pairs, asserts nothing.

    The statistic defaults to the identity on (observed values, mapping),
    the finest statistic, so its distributional equality is equivalent to
    equality for every statistic.
    """
    scheme = scheme or values_and_mapping()
    values, mapping = _extract_values_and_mapping(scheme, x)
    if len(set(mapping)) != len(mapping):
        raise NotRubinShape("the observed mapping repeats a unit")
    if statistic is None:
        statistic = lambda obs: obs
    z_of = _z_of_signal(m)
    pop = m.population
    mar = check_mar(m, x, scheme)
    oar = check_oar(m, x, scheme)
    distinct = check_distinct(m.grid) if m.phis else True

    def observed_part(y, mp):
        return (tuple(y[pop.index(k)] for k in mp), mp)

    mk = canonical_key(mapping)
    # one signal marginal and one ignoring distribution (kept as its key)
    # per theta, one (y, r) joint per grid point; every theorem reads these
    marginals = {t: pushforward(m.signal_law[t], lambda yz: yz[0]) for t in m.thetas}
    ignoring = {
        t: canonical_key(
            pushforward(marginals[t], lambda y: statistic(observed_part(y, mapping)))
        )
        for t in m.thetas
    }
    # 6.3 hypothesis: the missingness mechanism is degenerate at the
    # observed mapping for every signal of positive mass.
    hyp_63 = True
    joints = {}
    for theta, phi in m.grid:
        pairs = []
        for y, w in marginals[theta].items:
            delta = m.design_for(phi).get(z_of(y))
            hyp_63 = hyp_63 and delta.mass(mapping) == 1
            pairs.extend(((y, r), w * wr) for r, wr in delta.items)
        joints[(theta, phi)] = dist_new(pairs)

    # 6.1 conclusion: the ignoring distribution equals the correct
    # conditional distribution given the observed mapping, wherever that
    # mapping has positive mass.  6.2 condition: the mass of the observed
    # mapping given the observed part is one positive constant; its
    # conclusion counts undefined conditionals (mapping of zero mass) as
    # failures, which keeps the equivalence exact in the finite case.
    # 6.3 conclusion: the unconditional law of the statistic is the
    # ignoring distribution.
    concl_61 = cond_62 = concl_62 = concl_63 = True
    for (theta, _phi), jm in joints.items():
        by_obs: dict = {}
        hits = []  # (statistic, mass) of the worlds showing the observed mapping
        for (y, r), w in jm.items:
            part = observed_part(y, mapping)
            twin = by_obs.setdefault(canonical_key(part), [Fraction(0), Fraction(0)])
            twin[0] += w
            if canonical_key(r) == mk:
                twin[1] += w
                hits.append((statistic(part), w))
        ratios = {twin[1] / twin[0] for twin in by_obs.values()}
        if len(ratios) != 1 or next(iter(ratios)) == 0:
            cond_62 = False
        k_mass = sum((w for _s, w in hits), Fraction(0))
        if k_mass == 0:
            concl_62 = False
        else:
            correct = dist_new([(stat, w / k_mass) for stat, w in hits])
            if canonical_key(correct) != ignoring[theta]:
                concl_61 = concl_62 = False
        if concl_63:
            unconditional = pushforward(
                jm, lambda ym: statistic(observed_part(ym[0], ym[1]))
            )
            concl_63 = canonical_key(unconditional) == ignoring[theta]

    # Likelihoods for 7.x: marginal of the observed values, and joint mass
    # of (values, mapping), both by exact summation over completions; one
    # of each per theta and per (theta, phi).
    fixed = _observed_constraints(m, values, mapping)
    thetas = m.thetas
    phis = _phi_points(m)
    completions = list(_completions(m, fixed)) if fixed is not None else []
    completion_keys = [canonical_key(y) for y in completions]
    signal_masses = {}
    for t in thetas:
        table = {canonical_key(y): w for y, w in marginals[t].items}
        signal_masses[t] = [table.get(k, Fraction(0)) for k in completion_keys]
    selection = {
        phi: [_selection_mass(m, z_of, phi, y, mapping) for y in completions]
        for phi in phis
    }
    lik = {t: sum(signal_masses[t], Fraction(0)) for t in thetas}
    lik_full = {
        (t, phi): sum(
            (a * b for a, b in zip(signal_masses[t], selection[phi])), Fraction(0)
        )
        for t in thetas
        for phi in phis
    }

    grid_set = set(m.grid)

    def cross_equal(eligible_phis) -> bool:
        for phi in eligible_phis:
            on_grid = [t for t in thetas if (t, phi) in grid_set]
            for t1 in on_grid:
                for t2 in on_grid:
                    if lik[t1] * lik_full[t2, phi] != lik_full[t1, phi] * lik[t2]:
                        return False
        return True

    eligible = [
        phi for phi in phis if fixed is not None and all(s > 0 for s in selection[phi])
    ]
    concl_71 = cross_equal(eligible)

    pre_72 = all(lik[t] > 0 for t in thetas)
    hyp_72b = True
    if pre_72:
        for phi in phis:
            ratios = {lik_full[t, phi] / lik[t] for t in thetas}
            if len(ratios) != 1 or next(iter(ratios)) <= 0:
                hyp_72b = False
                break
    concl_72 = cross_equal(phis)

    audits = (
        TheoremAudit("6.1", mar and oar, concl_61),
        TheoremAudit("6.2", cond_62, concl_62, notes=(("iff", cond_62 == concl_62),)),
        TheoremAudit("6.3", hyp_63, concl_63),
        TheoremAudit("7.1", mar and distinct, concl_71),
        TheoremAudit("7.2", pre_72 and distinct and hyp_72b, concl_72),
    )
    return RubinAuditReport(x=x, mar=mar, oar=oar, distinct=distinct, audits=audits)


# ---------------------------------------------------------------------------
# The classifier.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    inference_type: str
    verdict: str
    alpha: Fraction | None
    witnesses: tuple
    flags: tuple  # ((name, value), ...)

    def flag(self, name):
        for k, v in self.flags:
            if k == name:
                return v
        raise KeyError(name)


def default_priors(family: Family) -> list:
    return [uniform(family.points)]


def default_estimator(scheme: ObservationScheme):
    """Sample mean of the observed values (0 for an empty sample).

    Works for every built-in scheme: the values part is the observation
    itself under values-only, the first component otherwise.
    """

    def values_part(x):
        if scheme.kind == "values_only":
            return x
        if scheme.kind == "values_and_sampled_weights":
            return tuple(v for v, _pi in x)
        return x[0]

    def mean(x):
        values = values_part(x)
        if not values:
            return Fraction(0)
        return Fraction(sum(Fraction(v) for v in values), len(values))

    return mean


@dataclass(frozen=True)
class PreparedCheck:
    """The observation-free part of a classification: the original family,
    the classified split, the ignored family and the transformed target.
    Built once by `prepare`, then queried by `test` per inference type and
    observation."""

    model: SurveyModel
    scheme: ObservationScheme
    policy: NuisancePolicy
    family: Family
    split: ProcessSplit
    ignored: Family
    target: object
    target_star: object

    def test(
        self, inference_type: str, x, estimator, priors, nuisance_priors
    ) -> ClassificationReport:
        """Run the equivalence test of one inference type at x (None for
        the uniform reading).  The verdict is informative exactly when a
        witness inequality exists."""
        family, ignored = self.family, self.ignored
        if inference_type == LIKELIHOOD_BASED:
            result = likelihood_equivalent(
                family, ignored, x, self.target, self.target_star
            )
        elif inference_type == FREQUENTIST:
            if estimator is None:
                raise EngineError("frequentist classification needs an estimator")
            result = sampling_dist_equivalent(
                family, ignored, estimator, self.target, self.target_star
            )
        elif inference_type == BAYESIAN:
            if x is None:
                raise EngineError("Bayesian classification needs an observation")
            priors = list(priors) if priors else default_priors(family)
            if nuisance_priors is None:
                nuisance_priors = [_uniform_nuisance_prior(ignored)]
            priors_star = [
                _product_prior(q, qn, ignored)
                for q in priors
                for qn in nuisance_priors
            ]
            result = posterior_equivalent(
                family, ignored, priors, priors_star, self.target, x, self.target_star
            )
        else:
            raise EngineError(f"unknown inference type {inference_type!r}")

        m, policy = self.model, self.policy
        flags = [
            ("z_contains_y", m.z_contains_y),
            ("non_separated_grid", bool(m.phis) and not check_distinct(m.grid)),
            ("local_vs_uniform", "local" if x is not None else "uniform"),
            ("policy", policy.kind),
            ("split_status", self.split.status),
            ("nuisance", self.split.v_bar.name),
        ]
        if policy.kind == "single_arbitrary" and policy.dist is None:
            flags.append(("arbitrary_default", "uniform over the nuisance image"))
        if self.scheme.kind == "values_and_sampled_weights":
            flags.append(
                ("sampled_weights_convention", "pi computed from the realized design")
            )
        if inference_type == BAYESIAN:
            flags.append(
                ("nuisance_prior_restriction", "finite user-supplied nuisance priors only")
            )
        verdict = IGNORABLE if result.equivalent else INFORMATIVE
        return ClassificationReport(
            inference_type=inference_type,
            verdict=verdict,
            alpha=result.alpha,
            witnesses=result.witnesses,
            flags=tuple(flags),
        )


def prepare(
    m: SurveyModel,
    split,
    scheme: ObservationScheme,
    target,
    policy: NuisancePolicy,
) -> PreparedCheck:
    """Build the original family, classify the split on its world space,
    ignore the nuisance process under the policy and carry the target
    across.  `split` is a ProcessSplit or a (v, v_bar) pair."""
    family = Family.from_survey_model(m, scheme)
    if isinstance(split, ProcessSplit):
        proc_split = split
    else:
        v, v_bar = split
        proc_split = make_split(family, v, v_bar)
    ignored = ignore_model(family, proc_split, policy)
    target_star = transform_target(target, family, ignored)
    return PreparedCheck(
        model=m,
        scheme=scheme,
        policy=policy,
        family=family,
        split=proc_split,
        ignored=ignored,
        target=target,
        target_star=target_star,
    )


def classify(
    m: SurveyModel,
    split,
    scheme: ObservationScheme,
    inference_type: str,
    target,
    x=None,
    policy: NuisancePolicy | None = None,
    estimator=None,
    priors=None,
    nuisance_priors=None,
) -> ClassificationReport:
    """Decide whether the nuisance process is ignorable for one inference
    type: `prepare` the ignored family, then `test` it at x."""
    prepared = prepare(m, split, scheme, target, policy or dirac_fix())
    return prepared.test(inference_type, x, estimator, priors, nuisance_priors)


def _uniform_nuisance_prior(ignored: Family) -> FiniteDist:
    indices = {}
    for _orig, index in ignored.points:
        indices.setdefault(canonical_key(index), index)
    return uniform([indices[k] for k in sorted(indices)])


def _product_prior(prior: FiniteDist, nuisance_prior: FiniteDist, ignored: Family) -> FiniteDist:
    point_keys = {canonical_key(p): p for p in ignored.points}
    pairs = []
    for p, qp in prior.items:
        for index, qn in nuisance_prior.items:
            key = canonical_key((p, index))
            if key in point_keys:
                pairs.append((point_keys[key], qp * qn))
    total = sum((w for _, w in pairs), Fraction(0))
    if total == 0:
        raise ZeroEvidence("product prior puts no mass on the ignored grid")
    return dist_new([(p, w / total) for p, w in pairs])
