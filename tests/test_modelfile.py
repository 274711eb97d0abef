"""Model document parser and emitter: golden corpus round-trips and
located diagnostics."""

import hashlib
import random
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ignorability_lab.catalog import CATALOG
from ignorability_lab.exactprob import EngineError, canonical_key, replace
from ignorability_lab.ignorance import MarginalFunctional, ParameterFunction
from ignorability_lab.modelfile import (
    BadRational,
    ModelFileError,
    ModelSyntaxError,
    SchemaError,
    UnknownDesignVariant,
    emit_model,
    parse_model,
)
from ignorability_lab.sampling import SCHEME_KINDS

MINIMAL = CATALOG["srs_wor_minimal"]


class TestValidDocuments:
    def test_minimal_parses(self):
        doc = parse_model(MINIMAL)
        assert doc.units == (1, 2)
        assert doc.thetas == (F(1, 3), F(2, 3))
        assert doc.variant == "srs_wor"
        assert doc.n == 1
        assert doc.scheme_kind == "values_only"

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_round_trip(self, name):
        doc = parse_model(CATALOG[name])
        assert parse_model(emit_model(doc)) == doc

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_builds(self, name):
        build = parse_model(CATALOG[name]).build()
        assert build.model.grid

    def test_emit_is_deterministic(self):
        doc = parse_model(CATALOG["bernoulli_mixture"])
        assert emit_model(doc) == emit_model(doc)

    def test_comments_and_blank_lines_ignored(self):
        text = MINIMAL.replace("[grids]", "# leading comment\n\n[grids]")
        assert parse_model(text) == parse_model(MINIMAL)

    def test_default_split_and_target(self):
        doc = parse_model(MINIMAL)
        assert doc.split_v == ("signal",)
        assert doc.split_v_bar == ("selection",)
        assert doc.target_kind == "signal_law"

    def test_target_and_split_build(self):
        build = parse_model(CATALOG["srs_wor_n3"]).build()
        assert isinstance(build.target, MarginalFunctional)
        assert build.v.name == "signal"
        assert "selection" in build.v_bar.name

    def test_grid_label_target(self):
        build = parse_model(CATALOG["census"]).build()
        assert isinstance(build.target, ParameterFunction)


def expect_error(text, error_type, fragment=None):
    with pytest.raises(error_type) as info:
        parse_model(text)
    err = info.value
    assert err.line >= 1 and err.col >= 1
    if fragment:
        assert fragment in str(err)
    return err


class TestInvalidDocuments:
    def test_decimal_rational(self):
        text = MINIMAL.replace("theta = 1/3 2/3", "theta = 0.5 2/3")
        err = expect_error(text, BadRational, "use 1/2")
        assert err.line == 5

    def test_duplicate_unit(self):
        text = MINIMAL.replace("units = 1 2", "units = 1 1")
        expect_error(text, SchemaError, "duplicate unit label 1")

    def test_unknown_design_variant(self):
        text = MINIMAL.replace("variant = srs_wor", "variant = cluster")
        expect_error(text, UnknownDesignVariant, "cluster")

    def test_unknown_section(self):
        expect_error(MINIMAL + "\n[weights]\nw = 1\n", SchemaError, "unknown section")

    def test_missing_population(self):
        text = MINIMAL.replace("[population]\nunits = 1 2\n", "")
        expect_error(text, SchemaError, "missing required section")

    def test_missing_design_n(self):
        text = MINIMAL.replace("n = 1\n", "")
        expect_error(text, SchemaError, "needs a sample size")

    def test_unknown_scheme(self):
        text = MINIMAL.replace("scheme = values_only", "scheme = everything")
        expect_error(text, SchemaError, "unknown observation scheme")

    def test_signal_mass_not_unit(self):
        text = MINIMAL.replace("iid 1/3 = 0:2/3 1:1/3", "iid 1/3 = 0:2/3 1:1/2")
        expect_error(text, SchemaError, "sum to")

    def test_signal_value_outside_alphabet(self):
        text = MINIMAL.replace("iid 1/3 = 0:2/3 1:1/3", "iid 1/3 = 0:2/3 7:1/3")
        expect_error(text, SchemaError, "not in the alphabet")

    def test_law_for_unknown_theta(self):
        text = MINIMAL.replace("iid 1/3", "iid 1/5")
        expect_error(text, SchemaError, "unknown theta")

    def test_hand_built_unknown_variant(self):
        doc = replace(parse_model(MINIMAL), variant="cluster")
        with pytest.raises(EngineError, match="unknown design variant 'cluster'"):
            doc.build()

    def test_missing_law_for_theta(self):
        text = MINIMAL.replace("iid 2/3 = 0:1/3 1:2/3\n", "")
        expect_error(text, SchemaError, "theta 2/3 has no signal law")

    @pytest.mark.parametrize(
        "model, old, new, message",
        [
            ("srs_wor_minimal", "units = 1 2", "units = 1/2 1/2", "duplicate unit label 1/2"),
            ("srs_wor_minimal", "units = 1 2", "units = a a", "duplicate unit label 'a'"),
            ("bernoulli_mixture", "component 0 = 1", "component 0 = 1/2", "component unit 1/2 not in the population"),
            ("srs_wor_n3", "unit = 1", "unit = 3/2", "target unit 3/2 not in the population"),
            ("bernoulli_mixture", "weights 1/2 = 1/4 1/4 1/2\n", "", "no mixture weights for grid label 1/2"),
            ("correlated_joint", "joint even = 0,0:", "joint even = 1/2,0:", "value 1/2 not in the alphabet"),
        ],
        ids=["unit-rational", "unit-word", "component-unit", "target-unit", "weights-label", "joint-value"],
    )
    def test_labels_written_as_in_the_document(self, model, old, new, message):
        text = CATALOG[model]
        assert text.count(old) == 1
        expect_error(text.replace(old, new), SchemaError, message)

    @pytest.mark.parametrize(
        "old, new, rule, message, bad_line, col",
        [
            ("weights 1/2 = 1/4 1/4 1/2", "weights 1/2 = 1/4 1/4 1/2\nweights 1/3 = 0 0 1",
             "unique-weights", "duplicate weights line for label '1/3'", "weights 1/3 = 0 0 1", 9),
            ("weights 1/3 = 1/6 1/6 2/3\nweights 1/2 = 1/4 1/4 1/2", "weights = 1/6 1/6 2/3\nweights = 1/4 1/4 1/2",
             "unique-weights", "duplicate unlabelled weights line", "weights = 1/4 1/4 1/2", 1),
            ("weights 1/2 = 1/4 1/4 1/2", "weights 1/5 = 1/4 1/4 1/2",
             "weights-in-grid", "weights label '1/5' not in the grid", "weights 1/5 = 1/4 1/4 1/2", 9),
            ("weights 1/2 = 1/4 1/4 1/2", "weights = 1/4 1/4 1/2",
             "unlabelled-weights", "unlabelled weights line beside labelled ones", "weights = 1/4 1/4 1/2", 1),
            ("weights 1/3 = 1/6 1/6 2/3", "weights = 1/6 1/6 2/3",
             "unlabelled-weights", "unlabelled weights line beside labelled ones", "weights 1/2 = 1/4 1/4 1/2", 1),
            ("component 1 = 2", "component 0 = 2",
             "unique-component", "duplicate component index '0'", "component 0 = 2", 11),
        ],
        ids=["second-labelled", "second-unlabelled", "label-off-grid", "unlabelled-after", "unlabelled-before",
             "component-index"],
    )
    def test_mixture_lines_that_clash(self, old, new, rule, message, bad_line, col):
        assert MIXTURE.count(old) == 1
        text = MIXTURE.replace(old, new)
        err = expect_error(text, SchemaError, f"{message} [{rule}]")
        assert text.splitlines()[err.line - 1] == bad_line
        assert err.col == col

    @pytest.mark.parametrize(
        "model, old, new, message, bad_line, col",
        [
            ("srs_wor_minimal", "n = 1\n", "n = 1\ncomponent 0 = 1\n",
             "components only belong to mixture designs", "component 0 = 1", 1),
            ("srs_wor_minimal", "n = 1\n", "n = 1\nweights = 1\n",
             "weights only belong to mixture designs", "weights = 1", 1),
            ("bernoulli_mixture", "weights 1/3 = 1/6 1/6 2/3\nweights 1/2 = 1/4 1/4 1/2\n", "",
             "mixture design needs weights", "variant = mixture", 11),
        ],
        ids=["component-off-mixture", "weights-off-mixture", "mixture-without-weights"],
    )
    def test_mixture_lines_that_do_not_fit_the_variant(self, model, old, new, message, bad_line, col):
        text = CATALOG[model]
        assert text.count(old) == 1
        text = text.replace(old, new)
        err = expect_error(text, SchemaError, f"{message} [variant-params]")
        assert text.splitlines()[err.line - 1] == bad_line
        assert err.col == col

    @pytest.mark.parametrize("scheme", ["values_and_mapping", "values_mapping_design", "values_and_sampled_weights"])
    def test_unordered_needs_values_only(self, scheme):
        text = CATALOG["unordered_values"].replace("scheme = values_only", f"scheme = {scheme}")
        message = f"unordered applies to the values_only scheme, not {scheme} [unordered-scheme]"
        err = expect_error(text, SchemaError, message)
        assert text.splitlines()[err.line - 1] == "unordered = true"
        assert err.col == 13
        parse_model(text.replace("unordered = true", "unordered = false"))  # the default stays valid

    def test_unknown_split_selector(self):
        text = MINIMAL + "\n[split]\nv = signal\nv_bar = weather\n"
        expect_error(text, SchemaError, "unknown split selector")

    def test_unknown_target_kind(self):
        text = MINIMAL + "\n[target]\nkind = variance\n"
        expect_error(text, SchemaError, "unknown target kind")

    def test_target_unit_not_in_population(self):
        text = MINIMAL + "\n[target]\nkind = unit_expectation\nunit = 9\n"
        expect_error(text, SchemaError, "not in the population")

    @pytest.mark.parametrize("kind", ["unit_expectation", "population_mean"])
    def test_averaging_target_needs_numeric_alphabet(self, kind):
        words = MINIMAL.replace("alphabet = 0 1", "alphabet = 0 hi").replace("1:", "hi:")
        parse_model(words + "\n[target]\nkind = signal_law\n")  # a word alphabet is valid
        err = expect_error(words + f"\n[target]\nkind = {kind}\n", SchemaError, "alphabet value 'hi' is not a number")
        assert (err.line, err.col, err.rule) == (20, 8, "numeric-alphabet")

    def test_syntax_no_equals(self):
        text = MINIMAL.replace("units = 1 2", "units 1 2")
        expect_error(text, ModelSyntaxError, "key")

    def test_content_before_section(self):
        expect_error("units = 1 2\n", ModelSyntaxError, "before any section")

    def test_duplicate_key(self):
        text = MINIMAL.replace("n = 1", "n = 1\nn = 2")
        expect_error(text, SchemaError, "duplicate key")

    def test_duplicate_section(self):
        expect_error(MINIMAL + "\n[design]\nvariant = srs_wor\n", SchemaError, "duplicate section")

    def test_gamma_outside_grid(self):
        text = CATALOG["bernoulli_mixture"].replace(
            "gamma = 1/3:1/3 1/2:1/2", "gamma = 1/3:1/3 1/5:1/2"
        )
        expect_error(text, SchemaError, "not in the theta grid")

    def test_gamma_without_pairs(self):
        text = CATALOG["bernoulli_mixture"].replace("gamma = 1/3:1/3 1/2:1/2", "gamma =")
        err = expect_error(text, SchemaError, "missing value for key 'gamma' [key-value]")
        assert text.splitlines()[err.line - 1] == "gamma ="
        assert err.col == 1

    @pytest.mark.parametrize(
        "old, new, message, col",
        [
            ("theta = 1/3 1/2", "theta = 1/3 1/3 1/2", "duplicate theta label", 1),
            ("phi = 1/3 1/2", "phi = 1/3 1/3 1/2", "duplicate phi label", 1),
            ("gamma = 1/3:1/3 1/2:1/2", "gamma = 1/3:1/3 1/3:1/3 1/2:1/2", "duplicate gamma pair '1/3:1/3'", 17),
        ],
        ids=["theta", "phi", "gamma"],
    )
    def test_repeated_grid_label(self, old, new, message, col):
        # a repeated phi would give the model more phis than designs, and a
        # repeated gamma pair would count its point twice in the grid prior
        assert MIXTURE.count(old) == 1
        text = MIXTURE.replace(old, new)
        err = expect_error(text, SchemaError, f"{message} [distinct-grid]")
        assert text.splitlines()[err.line - 1] == new
        assert err.col == col

    @pytest.mark.parametrize("alloc, stratum", [("alloc =", 1), ("alloc = 1:1", 2), ("alloc = 2:1", 1)])
    def test_stratum_without_allocation(self, alloc, stratum):
        text = CATALOG["stratified"].replace("alloc = 1:1 2:1", alloc)
        err = expect_error(text, SchemaError, f"stratum {stratum} has no allocation [alloc-cover]")
        assert text.splitlines()[err.line - 1] == alloc
        assert err.col == 1

    def test_mixture_weights_wrong_arity(self):
        text = CATALOG["bernoulli_mixture"].replace(
            "weights 1/3 = 1/6 1/6 2/3", "weights 1/3 = 1/6 1/6"
        )
        expect_error(text, SchemaError, "one weight per component")

    def test_negative_mass(self):
        text = MINIMAL.replace("p = 1/2", "p = 1/2")  # no-op guard
        text = MINIMAL.replace("iid 1/3 = 0:2/3 1:1/3", "iid 1/3 = 0:4/3 1:-1/3")
        expect_error(text, SchemaError, "negative mass")

    def test_error_location_is_exact(self):
        text = MINIMAL.replace("theta = 1/3 2/3", "theta = 1/3 0.25")
        err = expect_error(text, BadRational, "use 1/4")
        assert err.line == 5
        assert err.col == 13

    def test_zero_denominator_label(self):
        text = MINIMAL.replace("alphabet = 0 1", "alphabet = 1/0 1")
        err = expect_error(text, BadRational, "zero denominator in '1/0'")
        assert err.col == 12

    def test_zero_denominator_mass(self):
        text = MINIMAL.replace("iid 1/3 = 0:2/3 1:1/3", "iid 1/3 = 0:2/0 1:1/3")
        expect_error(text, BadRational, "zero denominator in '2/0'")

    def test_value_is_only_a_comment(self):
        text = CATALOG["srs_wor_n3"].replace("unit = 1", "unit = #")
        err = expect_error(text, SchemaError, "missing value for key 'unit'")
        assert err.col == 1

    def test_component_index_not_a_number(self):
        text = CATALOG["bernoulli_mixture"].replace("component 0 = 1", "component ] = 1")
        expect_error(text, SchemaError, "component index ']' is not a number")

    @pytest.mark.parametrize(
        "model, old, new, col",
        [
            ("srs_wor_minimal", "variant = srs_wor", "variant = srs_wor srs_wr", 19),
            ("srs_wor_minimal", "n = 1", "n = 1 2", 7),
            ("srs_wor_minimal", "scheme = values_only", "scheme = values_only x", 22),
            ("unordered_values", "unordered = true", "unordered = true false", 18),
            ("srs_wor_n3", "kind = unit_expectation", "kind = unit_expectation signal_law", 25),
            ("srs_wor_n3", "unit = 1", "unit = 1 2", 10),
        ],
        ids=["variant", "n", "scheme", "unordered", "kind", "unit"],
    )
    def test_extra_value_of_a_one_value_key(self, model, old, new, col):
        text = CATALOG[model]
        assert text.count(old) == 1
        text = text.replace(old, new)
        key = old.split()[0]
        err = expect_error(text, SchemaError, f"key {key!r} takes one value [one-value]")
        assert text.splitlines()[err.line - 1] == new
        assert err.col == col

    @pytest.mark.parametrize(
        "model, old, new, col",
        [
            ("srs_wor_minimal", "alphabet = 0 1", "alphabet = = 0 1", 12),
            ("srs_wor_minimal", "units = 1 2", "units = 1 2 =", 13),
            ("bernoulli_mixture", "component 0 = 1", "component 0 = = 1", 15),
            ("srs_wor_minimal", "iid 1/3 = 0:2/3 1:1/3", "iid 1/3 = 0:2/3 = 1:1/3", 17),
        ],
        ids=["alphabet", "units", "component", "iid"],
    )
    def test_equals_sign_among_list_values(self, model, old, new, col):
        text = CATALOG[model]
        assert text.count(old) == 1
        text = text.replace(old, new)
        key = old.split()[0]
        err = expect_error(text, SchemaError, f"unexpected '=' among the values of key {key!r} [key-value]")
        assert text.splitlines()[err.line - 1] == new
        assert err.col == col

    @pytest.mark.parametrize("key", ["variant", "scheme"])
    def test_empty_variant_or_scheme(self, key):
        lines = MINIMAL.splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(key))
        text = "\n".join(f"{key} =" if i == lineno else line for i, line in enumerate(lines, 1))
        err = expect_error(text, SchemaError, f"missing value for key {key!r} [key-value]")
        assert (err.line, err.col) == (lineno, 1)

    @pytest.mark.parametrize(
        "model, key",
        [
            ("srs_wor_minimal", "theta"),
            ("srs_wor_minimal", "alphabet"),
            ("srs_wor_n3", "v"),
            ("srs_wor_n3", "v_bar"),
        ],
    )
    def test_empty_list_key(self, model, key):
        lines = CATALOG[model].splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.split()[:2] == [key, "="])
        text = "\n".join(f"{key} =" if i == lineno else line for i, line in enumerate(lines, 1))
        err = expect_error(text, SchemaError, f"missing value for key {key!r} [key-value]")
        assert (err.line, err.col) == (lineno, 1)

    def test_empty_units_keeps_its_rule(self):
        err = expect_error(MINIMAL.replace("units = 1 2", "units ="), SchemaError, "[nonempty]")
        assert (err.line, err.col) == (2, 1)


# Token mutations of the catalog documents: delete, duplicate or swap a
# whitespace token, or replace it with one of these.
REPLACEMENTS = ("1/0", "0.5", "#", "]", "=")


@st.composite
def mutated_documents(draw):
    text = CATALOG[draw(st.sampled_from(sorted(CATALOG)))]
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        slots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        i, j = draw(st.sampled_from(slots))
        op = draw(st.sampled_from(("delete", "duplicate", "swap") + REPLACEMENTS))
        if op == "delete":
            del lines[i][j]
        elif op == "duplicate":
            lines[i].insert(j, lines[i][j])
        elif op == "swap":
            k, l = draw(st.sampled_from(slots))
            lines[i][j], lines[k][l] = lines[k][l], lines[i][j]
        else:
            lines[i][j] = op
    return "\n".join(" ".join(line) for line in lines) + "\n"


MIXTURE = CATALOG["bernoulli_mixture"]
NO_PHI = MIXTURE.replace("phi = 1/3 1/2\n", "").replace("gamma = 1/3:1/3 1/2:1/2\n", "")


class TestMixtureKeyedByTheta:
    """A mixture design with no phi grid is keyed by the theta labels,
    which become its phi labels; the grid is their full product unless
    gamma is given."""

    def test_weights_per_theta_label(self):
        m = parse_model(NO_PHI).build().model
        assert tuple(m.designs) == m.thetas == (F(1, 3), F(1, 2))
        assert m.grid == tuple((t, phi) for t in m.thetas for phi in m.designs)
        declared = parse_model(MIXTURE).build().model  # the same weights under phi labels
        for label in m.designs:
            assert canonical_key(m.design_for(label)) == canonical_key(declared.design_for(label))

    def test_gamma_restricts_the_grid(self):
        text = NO_PHI.replace("theta = 1/3 1/2\n", "theta = 1/3 1/2\ngamma = 1/3:1/3 1/2:1/2\n")
        m = parse_model(text).build().model
        assert m.grid == ((F(1, 3), F(1, 3)), (F(1, 2), F(1, 2)))
        assert m == parse_model(MIXTURE).build().model

    def test_unlabelled_weights_go_to_every_label(self):
        text = NO_PHI.replace("weights 1/3 = 1/6 1/6 2/3\nweights 1/2 = 1/4 1/4 1/2\n", "weights = 1/4 1/4 1/2\n")
        doc = parse_model(text)
        m = doc.build().model
        assert tuple(m.designs) == m.thetas and len(m.grid) == 4
        want = canonical_key(parse_model(MIXTURE).build().model.design_for(F(1, 2)))
        assert all(canonical_key(m.design_for(label)) == want for label in m.designs)
        # the round trip writes one labelled line per grid label
        written = [line for line in emit_model(doc).splitlines() if line.startswith("weights")]
        assert written == ["weights 1/3 = 1/4 1/4 1/2", "weights 1/2 = 1/4 1/4 1/2"]
        assert parse_model(emit_model(doc)) == doc


class TestValueRules:
    """Value rules the engine also checks, located here so that a document
    is refused at its token; models built through the Python API meet the
    engine's own checks (test_designs.py, test_sampling.py)."""

    @pytest.mark.parametrize(
        "model, old, new, rule, message, col",
        [
            ("srs_wor_minimal", "n = 1", "n = 3", "sample-fits-population",
             "sample size 3 without replacement exceeds the population size 2", 5),
            ("poisson", "p = 1/2 1/2", "p = 1/2 -1", "probability-range", "inclusion probability -1 outside [0, 1]", 9),
            ("poisson", "p = 1/2 1/2", "p = 3/2 1/2", "probability-range", "inclusion probability 3/2 outside [0, 1]", 5),
            ("srs_wor_minimal", "theta = 1/3 2/3", "theta = 1/3 2/3\ngamma = 1/3:1/3 2/3:5", "gamma-in-grid",
             "gamma phi '1/3' not in a phi grid; add a phi line", 9),
            ("bernoulli_mixture", "phi = 1/3 1/2\ngamma = 1/3:1/3 1/2:1/2", "gamma = 1/3:1/3 1/2:5", "gamma-in-grid",
             "gamma phi '5' not in the theta grid, a mixture's phi grid", 17),
        ],
        ids=["srs-n-above-units", "poisson-negative", "poisson-above-one", "gamma-phi-no-phi-line",
             "gamma-phi-mixture-off-thetas"],
    )
    def test_refused_at_the_token(self, model, old, new, rule, message, col):
        text = CATALOG[model]
        assert text.count(old) == 1
        err = expect_error(text.replace(old, new), SchemaError, f"{message} [{rule}]")
        assert err.col == col

    def test_accepted_edges(self):
        # n = N without replacement, p at 0 and 1, srs_wr above N, and a
        # mixture's gamma on its theta grid with no phi line all build
        for model, old, new in (("srs_wor_minimal", "n = 1", "n = 2"), ("poisson", "p = 1/2 1/2", "p = 0 1"),
                                ("srs_wor_minimal", "variant = srs_wor\nn = 1", "variant = srs_wr\nn = 3")):
            parse_model(CATALOG[model].replace(old, new)).build()
        m = parse_model(NO_PHI.replace("theta = 1/3 1/2\n", "theta = 1/3 1/2\ngamma = 1/3:1/2\n")).build().model
        assert m.grid == ((F(1, 3), F(1, 2)),)


class TestMutatedDocuments:
    @settings(max_examples=400, deadline=None)
    @given(mutated_documents())
    def test_only_located_diagnostics_escape(self, text):
        try:
            parse_model(text)
        except ModelFileError as err:
            assert err.line >= 1


# Every diagnostic rule the parser can report.
RULES = {
    "alloc-cover", "alloc-pair", "boolean", "component-index", "distinct-grid", "distinct-units",
    "distinct-values", "exact-rational", "gamma-in-grid", "gamma-pair", "integer-size",
    "key-value", "known-key", "known-scheme", "known-section", "known-selector",
    "known-target", "known-variant", "law-theta", "mass-pair", "nonempty",
    "nonnegative-mass", "numeric-alphabet", "one-law-per-theta", "one-value", "p-cover",
    "probability-range", "required-key", "required-section", "sample-fits-population", "section-header",
    "section-required", "signal-covers-population",
    "strata-cover", "unique-component", "unique-key", "unique-section", "unique-weights", "unit-exists",
    "unit-mass", "unlabelled-weights", "unordered-scheme", "value-in-alphabet", "variant-params",
    "weights-cover", "weights-in-grid",
}
DIGEST_REPLACEMENTS = REPLACEMENTS + ("-", "x", "0", "-1", "1:1", "[x", "0:-1")
DIAGNOSTICS_DIGEST = "2222e17b275353ab5e00c4e4303c3d81f4fa9b00a04966866beabe02b4118f48"


def _render(lines):
    return "\n".join(" ".join(line) for line in lines) + "\n"


def _mutants(lines):
    """Every single-token delete, duplicate, swap with the next token of
    its line and replacement, every line with the word `x` added at its
    end, every deleted or duplicated line and every deleted section of one
    document given as token lists, and the document under each other
    observation scheme."""
    for i, line in enumerate(lines):
        for j, tok in enumerate(line):
            variants = [line[:j] + line[j + 1:], line[:j] + [tok] + line[j:]]
            if j + 1 < len(line):
                variants.append(line[:j] + [line[j + 1], tok] + line[j + 2:])
            variants += [line[:j] + [new] + line[j + 1:] for new in DIGEST_REPLACEMENTS]
            for variant in variants:
                yield lines[:i] + [variant] + lines[i + 1:]
    for i in range(len(lines)):
        yield lines[:i] + [lines[i] + ["x"]] + lines[i + 1:]
        yield lines[:i] + lines[i + 1:]
        yield lines[:i + 1] + lines[i:]
    heads = [i for i, line in enumerate(lines) if line and line[0].startswith("[")]
    for start, end in zip(heads, heads[1:] + [len(lines)]):
        yield lines[:start] + lines[end:]
    i = next(i for i, line in enumerate(lines) if line[:2] == ["scheme", "="])
    for kind in SCHEME_KINDS:
        if kind != lines[i][2]:
            yield lines[:i] + [["scheme", "=", kind]] + lines[i + 1:]


def _random_mutant(rng, lines):
    lines = [list(line) for line in lines]
    for _ in range(rng.randint(2, 3)):
        slots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        i, j = rng.choice(slots)
        op = rng.choice(("delete", "duplicate", "swap") + DIGEST_REPLACEMENTS)
        if op == "delete":
            del lines[i][j]
        elif op == "duplicate":
            lines[i].insert(j, lines[i][j])
        elif op == "swap":
            k, l = rng.choice(slots)
            lines[i][j], lines[k][l] = lines[k][l], lines[i][j]
        else:
            lines[i][j] = op
    return lines


def diagnostics_corpus():
    """The single mutants of every catalog document, and 3,000 documents
    with 2-3 random token mutations each."""
    documents = [[line.split() for line in CATALOG[name].splitlines()] for name in sorted(CATALOG)]
    for lines in documents:
        for mutant in _mutants(lines):
            yield _render(mutant)
    rng = random.Random(12)
    for _ in range(3000):
        yield _render(_random_mutant(rng, rng.choice(documents)))


def test_diagnostics_digest():
    # one SHA-256 over the outcome of every corpus document: the parsed
    # document's repr, or the diagnostic's class, location, rule and text
    digest = hashlib.sha256()
    rules = set()
    count = 0
    for text in diagnostics_corpus():
        count += 1
        try:
            outcome = repr(parse_model(text))
        except ModelFileError as err:
            rules.add(err.rule)
            outcome = f"{type(err).__name__} {err.line} {err.col} {err.rule} {err}"
        digest.update(outcome.encode("utf-8") + b"\n")
    assert count == 11_625
    assert len(RULES) == 46
    assert rules == RULES
    assert digest.hexdigest() == DIAGNOSTICS_DIGEST
