"""The engine's records keep the contract of frozen standard-library
dataclasses.

Each of the 24 record classes gets a twin built by
`dataclasses.make_dataclass` from the fields and options written out in
`SPECS` (with the class's own `__post_init__`, and `FiniteDist`'s own
`__repr__`).  On sample records (catalog builds, checks and their reports,
splits, Rubin audits, Monte Carlo cells) the engine record and its twin
give the same `repr`, `==`, `!=` and `hash`, the same defaults and
`__post_init__` refusals, refuse to set or delete an attribute with an
`AttributeError`, and give the same `replace` results.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from ignorability_lab.catalog import CATALOG
from ignorability_lab.exactprob import MISSING, EngineError, FiniteDist, Kernel, Record, fields, replace
from ignorability_lab.ignorance import (
    Drawn,
    Family,
    MarginalFunctional,
    NuisancePolicy,
    ParameterFunction,
    Predictand,
    ProcessSplit,
    RandomVariableRef,
    _observation_rv,
    dirac_fix,
    marginal_family,
    single_arbitrary,
)
from ignorability_lab.inference import (
    FREQUENTIST,
    LIKELIHOOD_BASED,
    ClassificationReport,
    EquivalenceResult,
    PreparedCheck,
    RubinAuditReport,
    TheoremAudit,
    Witness,
    default_estimator,
    prepare,
    prepare_rubin,
)
from ignorability_lab.mc import McCell, McReport, compare_exact_vs_mc
from ignorability_lab.modelfile import BuildResult, ModelDocument, Token, _tokenize, parse_model
from ignorability_lab.sampling import (
    ObservationScheme,
    Population,
    SurveyModel,
    WorldState,
    values_and_mapping,
)

# per class: eq, then per field (name, default, compare, repr)
F = (True, True)  # compared and shown
SPECS = {
    FiniteDist: (True, [("items", MISSING, *F)]),
    Kernel: (True, [("entries", MISSING, *F), ("rule", None, False, True)]),
    Population: (True, [("labels", MISSING, *F)]),
    WorldState: (True, [("y", MISSING, *F), ("z", MISSING, *F), ("r", MISSING, *F)]),
    ObservationScheme: (True, [("kind", MISSING, *F), ("unordered", False, *F)]),
    SurveyModel: (True, [
        ("population", MISSING, *F), ("thetas", MISSING, *F), ("signal_law", MISSING, *F),
        ("designs", MISSING, *F), ("grid", (), *F), ("z_contains_y", False, *F), ("alphabet", (), *F),
    ]),
    RandomVariableRef: (True, [("name", MISSING, *F), ("fn", MISSING, False, True), ("reads", None, False, True)]),
    Drawn: (True, [("population", MISSING, *F), ("unordered", False, *F), ("pis", None, False, True)]),
    ProcessSplit: (False, [("v", MISSING, *F), ("v_bar", MISSING, *F), ("status", MISSING, *F)] + [
        (name, MISSING, True, False)
        for name in ("worlds", "v_code", "v_bar_of", "v_bar_values", "v_bar_codes", "compatible", "worlds_of")
    ]),
    NuisancePolicy: (True, [("kind", MISSING, *F), ("dist", None, *F)]),
    Predictand: (True, [("name", MISSING, *F), ("fn", MISSING, False, True)]),
    MarginalFunctional: (True, [("name", MISSING, *F), ("var", MISSING, *F), ("fn", MISSING, False, True)]),
    ParameterFunction: (True, [("name", MISSING, *F), ("fn", MISSING, False, True)]),
    Witness: (True, [("kind", MISSING, *F), ("equal", MISSING, *F), ("detail", MISSING, *F)]),
    EquivalenceResult: (True, [("equivalent", MISSING, *F), ("alpha", MISSING, *F), ("witnesses", MISSING, *F)]),
    TheoremAudit: (True, [
        ("theorem", MISSING, *F), ("hypothesis_true", MISSING, *F), ("conclusion_true", MISSING, *F), ("notes", (), *F),
    ]),
    RubinAuditReport: (True, [(name, MISSING, *F) for name in ("x", "mar", "oar", "distinct", "audits")]),
    ClassificationReport: (True, [
        (name, MISSING, *F) for name in ("inference_type", "verdict", "alpha", "witnesses", "flags")
    ]),
    PreparedCheck: (True, [
        (name, MISSING, *F) for name in ("model", "scheme", "policy", "family", "split", "ignored", "target")
    ]),
    McCell: (True, [(name, MISSING, *F) for name in ("outcome", "exact", "count", "draws")]),
    McReport: (True, [
        (name, MISSING, *F) for name in ("draws", "seed", "cells", "max_abs_deviation", "three_sigma_bound")
    ]),
    Token: (True, [("text", MISSING, *F), ("line", MISSING, *F), ("col", MISSING, *F)]),
    ModelDocument: (True, [
        (name, MISSING, *F) for name in ("units", "thetas", "phis", "gamma", "alphabet", "signal", "variant")
    ] + [
        (name, None, *F) for name in ("n", "strata", "alloc", "p", "components", "weights")
    ] + [
        ("scheme_kind", "values_only", *F), ("unordered", False, *F), ("split_v", ("signal",), *F),
        ("split_v_bar", ("selection",), *F), ("target_kind", "signal_law", *F), ("target_unit", None, *F),
    ]),
    BuildResult: (True, [(name, MISSING, *F) for name in ("model", "scheme", "v", "v_bar", "target")]),
}


def twin_of(cls):
    eq, spec = SPECS[cls]
    namespace = {name: vars(cls)[name] for name in ("__post_init__",) if name in vars(cls)}
    if cls is FiniteDist:
        namespace["__repr__"] = vars(cls)["__repr__"]
    specs = [
        (name, object, dataclasses.field(compare=compare, repr=shown)
         if default is MISSING else dataclasses.field(default=default, compare=compare, repr=shown))
        for name, default, compare, shown in spec
    ]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, eq=eq, namespace=namespace)


TWINS = {cls: twin_of(cls) for cls in SPECS}


def as_twin(record):
    return TWINS[type(record)](**{name: getattr(record, name) for name, *_ in SPECS[type(record)][1]})


def hashed(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def _samples() -> dict:
    out = {cls: [] for cls in SPECS}

    def add(*records):
        for record in records:
            out[type(record)].append(record)

    for name in ("srs_wor_minimal", "sampled_weights", "census", "select_max", "unordered_values"):
        doc = parse_model(CATALOG[name])
        build = doc.build()
        m = build.model
        add(doc, build, m, build.scheme, build.v, build.v_bar, build.target, m.population)
        add(*m.signal_law.values(), *m.designs.values(), *m.world_space()[:2])
        if isinstance(build.target, MarginalFunctional):
            add(build.target.var)
        for phi in m.designs:
            observation = _observation_rv(m, build.scheme, phi)
            add(observation)
            if observation.reads is not None and not isinstance(observation.reads, tuple):
                add(observation.reads)
        for policy in (dirac_fix(), single_arbitrary(), marginal_family()):
            prepared = prepare(m, (build.v, build.v_bar), build.scheme, build.target, policy)
            add(policy, prepared, prepared.split)
            for kind in (LIKELIHOOD_BASED, FREQUENTIST):
                estimator = default_estimator(build.scheme) if kind == FREQUENTIST else None
                report = prepared.test(kind, None, estimator)
                add(report, *report.witnesses)
                add(EquivalenceResult(report.verdict == "ignorable", report.alpha, report.witnesses))
        theta, phi = m.grid[0]
        mc = compare_exact_vs_mc(m, theta, phi, build.scheme, draws=200, seed=7)
        add(mc, *mc.cells[:3])
    m = parse_model(CATALOG["srs_wor_minimal"]).build().model
    scheme = values_and_mapping()
    rubin = prepare_rubin(m, scheme)
    for x in Family.from_survey_model(m, scheme).observation_support()[:3]:
        audit = rubin.audit(x)
        add(audit, *audit.audits)
    add(NuisancePolicy("single_arbitrary", m.signal_law[m.thetas[0]]))
    add(Predictand("first", lambda w: w.y[0]), Predictand("first", len))
    add(ParameterFunction("theta", lambda point: point[0]))
    add(*next(_tokenize("a = 1/2  # note")), Token("a", 1, 1))
    return out


@pytest.fixture(scope="module")
def samples():
    return _samples()


@pytest.mark.parametrize("cls", SPECS, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_fields_and_options(self, cls, samples):
        declared = [(f.name, f.default, f.compare, f.repr) for f in fields(cls)]
        assert declared == SPECS[cls][1]
        assert [f.name for f in fields(samples[cls][0])] == [name for name, *_ in SPECS[cls][1]]

    def test_repr_eq_and_hash(self, cls, samples):
        records = samples[cls]
        assert len(records) >= 2
        pairs = [(r, as_twin(r)) for r in records]
        pairs += [(replace(r), dataclasses.replace(t)) for r, t in pairs]  # equal copies
        for r, t in pairs:
            assert repr(r) == repr(t)
            if SPECS[cls][0]:
                assert hashed(r) == hashed(t)
            else:
                assert hash(r) == object.__hash__(r)
            assert r.__eq__(object()) is NotImplemented and (r == t) is False
        for (a, ta), (b, tb) in itertools.product(pairs, repeat=2):
            assert (a == b) == (ta == tb) and (a != b) == (ta != tb)

    def test_defaults(self, cls, samples):
        spec = SPECS[cls][1]
        for r in samples[cls]:
            required = {name: getattr(r, name) for name, default, *_ in spec if default is MISSING}
            built, twin = cls(**required), TWINS[cls](**required)
            assert repr(built) == repr(twin)
            for name, default, *_ in spec:
                value = getattr(built, name)
                assert value is getattr(twin, name) if default is MISSING else value == default
            if SPECS[cls][0]:
                assert (built == cls(**required)) and hashed(built) == hashed(twin)

    def test_construction_refusals(self, cls, samples):
        # too many arguments, a missing one, or one given twice
        spec = SPECS[cls][1]
        values = [getattr(samples[cls][0], name) for name, *_ in spec]
        for make in (cls, TWINS[cls]):
            with pytest.raises(TypeError):
                make(*values, None)
            with pytest.raises(TypeError):
                make()
            with pytest.raises(TypeError):
                make(*values, **{spec[0][0]: values[0]})

    def test_frozen(self, cls, samples):
        for r in samples[cls][:2]:
            for record in (r, as_twin(r)):
                for name in [name for name, *_ in SPECS[cls][1]] + ["not_a_field"]:
                    with pytest.raises(AttributeError):
                        setattr(record, name, None)
                    with pytest.raises(AttributeError):
                        delattr(record, name)
            assert repr(r) == repr(as_twin(r))

    def test_replace(self, cls, samples):
        records = samples[cls]
        spec = SPECS[cls][1]
        for r, other in zip(records, records[1:] + records[:1]):
            t = as_twin(r)
            for name, *_ in spec:
                value = getattr(other, name)
                got, expected = replace(r, **{name: value}), dataclasses.replace(t, **{name: value})
                assert type(got) is cls and repr(got) == repr(expected)
                assert all(getattr(got, n) is getattr(expected, n) for n, *_ in spec)
                assert (got == r) == (expected == t)
            with pytest.raises(TypeError):
                replace(r, not_a_field=1)
            with pytest.raises(TypeError):
                dataclasses.replace(t, not_a_field=1)


@pytest.mark.parametrize(
    "cls, changes, message",
    [
        (NuisancePolicy, {"kind": "bogus"}, "unknown nuisance policy 'bogus'"),
        (ObservationScheme, {"kind": "bogus"}, "unknown observation scheme 'bogus'"),
        (Population, {"labels": ()}, "at least one unit"),
        (Population, {"labels": (1, 1)}, "must be distinct"),
    ],
)
def test_post_init_refusals(cls, changes, message, samples):
    record = samples[cls][0]
    for make in (lambda: cls(**changes), lambda: replace(record, **changes),
                 lambda: TWINS[cls](**changes), lambda: dataclasses.replace(as_twin(record), **changes)):
        with pytest.raises(EngineError, match=message):
            make()


def test_every_record_class_is_pinned():
    assert set(Record.__subclasses__()) == set(SPECS) and len(SPECS) == 24


def test_a_law_keeps_its_own_repr():
    law = FiniteDist(((0, Fraction(1, 3)), (1, Fraction(2, 3))))
    assert repr(law) == "FiniteDist({0: 1/3, 1: 2/3})" == repr(as_twin(law))
