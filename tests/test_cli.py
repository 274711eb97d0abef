"""Command-line interface: exit codes, JSON output, command wiring."""

import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ignorability_lab.catalog import CATALOG
from ignorability_lab.cli import main, parse_observation_literal
from fractions import Fraction as F


@pytest.fixture()
def models(tmp_path):
    paths = {}
    for name, text in CATALOG.items():
        path = tmp_path / f"{name}.model"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_rubin(monkeypatch):
    """Record every Rubin context the CLI prepares and every MAR query made
    on one."""
    from ignorability_lab import cli

    contexts, mar_queries = [], []
    real = cli.prepare_rubin

    def counting(*args):
        rubin = real(*args)
        contexts.append(rubin)
        real_mar = rubin.mar

        def mar(x):
            mar_queries.append(x)
            return real_mar(x)

        rubin.mar = mar
        return rubin

    monkeypatch.setattr(cli, "prepare_rubin", counting)
    return contexts, mar_queries


def population_mean_text(name: str) -> str:
    """A catalog model's text with its target, where it has one (the last
    section), replaced by `population_mean`; `srs_N5_n2` is `srs_wor_n3`
    with five units."""
    if name == "srs_N5_n2":
        return population_mean_text("srs_wor_n3").replace("units = 1 2 3\n", "units = 1 2 3 4 5\n")
    return CATALOG[name].partition("[target]")[0] + "[target]\nkind = population_mean\n"


# SHA-256 of `check --inference bayes --policy <policy> --json` stdout on
# every catalog model with a population_mean target, and on the SRS rung
# N=5 n=2: (model, policy) -> digest.  select_max, and bernoulli_mixture
# under dirac and arbitrary, are informative
POPULATION_MEAN_DIGESTS = {
    ("srs_wor_minimal", "dirac"): "1eaf0146df45933e1230490705b6acd423c09689d17ece49c46e8e1cf4df0558",
    ("srs_wor_minimal", "marginal"): "2b0049c57b93a5315dd0fe1a35dcb9841737bd8ed3bbe185316d1f045a88582f",
    ("srs_wor_minimal", "arbitrary"): "541e62bc041918dc1396fd0531a72344198c8a5bedde72a2967e59450fd67d81",
    ("srs_wor_n3", "dirac"): "0e072a584bd931f269c4ff392a4ae0706250439e1a08b979f0c9d31f76c9bffe",
    ("srs_wor_n3", "marginal"): "d7152fc491215202f0597be3186643185ef7601cba30e19d21a9228f4ecac95c",
    ("srs_wor_n3", "arbitrary"): "1546cf4fcc4f25c4d51501908979d038d5abca0c0bd588a9011d1e39a25511cd",
    ("srs_wr_duplicates", "dirac"): "f977882b3eb8d5f150bc42d3c7a0f8624cbdfd4cedee5277866e7c6e0c033a5d",
    ("srs_wr_duplicates", "marginal"): "d4ec97d7e73e321073a17b410575fac27cf0da6f893c68f6204e3e072a6d7712",
    ("srs_wr_duplicates", "arbitrary"): "578f477d7e6b34af78fa585da9b163f5b8f2bd3d7fafde2fe6e773770887cc8d",
    ("select_max", "dirac"): "2527a815e081d10069921a29827796aafab7ceedababd27009b1803145f617c1",
    ("select_max", "marginal"): "1c4ac5e48721ada23130450ce4dd77efdbbd3f38ba4057378b99b7678ed1f020",
    ("select_max", "arbitrary"): "b6d0eb6e8ac8f3094613389c293c5afd523c169267fdf8db168a3cb4ad725d9f",
    ("bernoulli_mixture", "dirac"): "f325b65075d934701939c568771ad0cb67b83956769a8406ee590a8adfe73a55",
    ("bernoulli_mixture", "marginal"): "bee50e2d1fe389dc6e3541fc2ceec16f12149acd97e2773769f7e6cad5c6510a",
    ("bernoulli_mixture", "arbitrary"): "82dd1a9c5d7291a68e301b1bde85d2321bb69c94c9e5dadc226aaf6ea2ba1e46",
    ("stratified", "dirac"): "d05e1e3f6a19785d42f3febb7672df3650deaa2df7f0399e4acbac7fc23d49d9",
    ("stratified", "marginal"): "669e0fa489e8d5d974864c3ec990c23adbba9d9023da9e869cc5f9b8b5e90ae1",
    ("stratified", "arbitrary"): "ace658540c008c6b7010a231657d052a55d7df4c69c2003f13d9fc90b1fd0844",
    ("poisson", "dirac"): "352eb1966237991ea45889922e4f165f3cdd62160f9a04a78c18b925bb78f166",
    ("poisson", "marginal"): "b7e4996edbe8cda93663df0635172636ac50ed24a08c1778929da07a22db3255",
    ("poisson", "arbitrary"): "3d8f5f105b285106820bd2adcecb14f0391e60a05ffe5c5985a33a57ae211441",
    ("census", "dirac"): "bb289183b9063ea94d455bbd9ea10f5e634455e4e9830fac06beb8584b9bd2b9",
    ("census", "marginal"): "ea7b4656c44c2875c3874a4d766aa7a03706ff9cd94f0407e7b4f47dfa9c4a98",
    ("census", "arbitrary"): "d580e35d4258fdf6ffe32e0709b3c6433a1740bc13d80e1acaaeb459f85c07ee",
    ("sampled_weights", "dirac"): "fe5dfaff6d0631d8bd31b88117ed1895260608a8fcac7dfbf78a2388cfe2cd4b",
    ("sampled_weights", "marginal"): "1de0899fff744d23e16d50aa36b3be31d49546582df897029a9f0f29aef6bbd2",
    ("sampled_weights", "arbitrary"): "aaa2d5aac1f77544a8c51d898d10f682a6c897699e8cf50e7aec42b3ecd9cac7",
    ("unordered_values", "dirac"): "17c34a4508d8f48f52dbe934be755f5b1064865ef19f06bcac807c2ad1e09481",
    ("unordered_values", "marginal"): "d673b638c062347c1a5c50f8bda65d5daa405529bddcc83c041f3d7febb0d15c",
    ("unordered_values", "arbitrary"): "891156068999d4b2aa743ab03842c85d1799f72365299ef70d14f4ec0fc15955",
    ("correlated_joint", "dirac"): "377f54242289e49ba9a50ec5b585fb989f5cf603b6bd77deb2b0e30761e6bd89",
    ("correlated_joint", "marginal"): "fcbc018810cc9c4da4871ed2e0c80f48a6d4872cd17bb1f214e27bf85cc52389",
    ("correlated_joint", "arbitrary"): "289174cb43b26bb90f3c0aa6b655aeb6cae5ff8769ef466c35e95aa8182c71eb",
    ("srs_N5_n2", "dirac"): "a80b364e886d4a9b5c0b764652a544cec3fc1a88eecaf07ab00204250e38b404",
}


class TestObservationLiteral:
    def test_nested_lists_to_tuples(self):
        assert parse_observation_literal("[[1,0],[2,1]]") == ((1, 0), (2, 1))

    def test_rational_strings(self):
        assert parse_observation_literal('[[1,"1/2"]]') == ((1, F(1, 2)),)

    def test_bad_json(self):
        from ignorability_lab.exactprob import EngineError

        with pytest.raises(EngineError):
            parse_observation_literal("[1, 0")


class TestCheck:
    def test_srs_ignorable_exit_codes(self, capsys, models):
        code, out, _ = run(capsys, ["check", models["srs_wor_n3"], "--expect", "ignorable"])
        assert code == 0
        assert "ignorable" in out
        code, _, _ = run(capsys, ["check", models["srs_wor_n3"], "--expect", "informative"])
        assert code == 1

    def test_select_max_informative(self, capsys, models):
        code, out, _ = run(
            capsys, ["check", models["select_max"], "--expect", "informative"]
        )
        assert code == 0
        assert "informative" in out

    def test_json_form(self, capsys, models):
        code, out, _ = run(capsys, ["check", models["select_max"], "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "informative"
        assert payload["type"] == "classification"
        assert any(not w["equal"] for w in payload["witnesses"])

    def test_json_alpha_rational(self, capsys, models):
        code, out, _ = run(capsys, ["check", models["srs_wor_n3"], "--json"])
        payload = json.loads(out)
        assert payload["verdict"] == "ignorable"
        assert payload["alpha"] == "6/1"

    def test_explicit_x(self, capsys, models):
        code, out, _ = run(
            capsys,
            [
                "check",
                models["bernoulli_mixture"],
                "--x",
                "[[1],[1]]",
                "--expect",
                "informative",
            ],
        )
        assert code == 0

    def test_bayes_all_x(self, capsys, models):
        code, out, _ = run(
            capsys,
            ["check", models["srs_wor_minimal"], "--inference", "bayes", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "ignorable"

    def test_frequentist(self, capsys, models):
        code, out, _ = run(
            capsys,
            [
                "check",
                models["srs_wr_duplicates"],
                "--inference",
                "frequentist",
                "--expect",
                "informative",
            ],
        )
        assert code == 0

    def test_policy_marginal(self, capsys, models):
        code, out, _ = run(
            capsys, ["check", models["srs_wor_n3"], "--policy", "marginal"]
        )
        assert code == 0
        assert "ignorable" in out

    @pytest.mark.parametrize(
        "model, informative, overall",
        [("srs_wor_n3", "24 observations: 0 informative", ""),
         ("bernoulli_mixture", "8 observations: 8 informative", "\noverall verdict: informative\n")],
    )
    def test_bayes_all_x_human(self, capsys, models, model, informative, overall):
        # the human form of an all-observation Bayes check: the count line,
        # the headline report, and the overall verdict when one differs
        argv = ["check", models[model], "--inference", "bayes"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.startswith(f"checked {informative}\ninference ")
        assert out.endswith("\n" + overall) and out.count("overall verdict") == bool(overall)

    @pytest.mark.parametrize("inference", ["likelihood", "frequentist", "bayes"])
    def test_population_mean_target(self, capsys, tmp_path, inference):
        # a world function has no per-point value: only the Bayes test,
        # which reads the posterior law of its value, can use it
        text = CATALOG["srs_wor_n3"].replace("kind = unit_expectation\nunit = 1\n", "kind = population_mean\n")
        path = tmp_path / "population_mean.model"
        path.write_text(text)
        code, out, err = run(capsys, ["check", str(path), "--inference", inference, "--json"])
        if inference != "bayes":
            assert (code, out, err) == (2, "", "error: target 'population_mean' has no per-point value\n")
            return
        assert (code, err) == (0, "")
        assert json.loads(out)["observations_checked"] == 24
        # the bytes of every all-observation Bayes check with this target
        digests = {}
        for (name, policy), want in POPULATION_MEAN_DIGESTS.items():
            path = tmp_path / f"{name}.model"
            path.write_text(population_mean_text(name))
            code, out, err = run(capsys, ["check", str(path), "--inference", "bayes", "--policy", policy, "--json"])
            assert (code, err) == (0, "")
            digests[name, policy] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digests == POPULATION_MEAN_DIGESTS

    def test_malformed_x_is_input_error(self, capsys, models):
        code, _, err = run(capsys, ["check", models["srs_wor_minimal"], "--x", "[9]"])
        assert code == 2
        assert "error" in err

    def test_uniform_mar_flags_computed_once(self, capsys, models, monkeypatch):
        # one Rubin context per command and one MAR query per observed
        # mapping, not one per observation pair: the 24 observations of
        # srs_wor_n3 draw 6 mappings, each with flat columns, where MAR holds
        # at every observation (see the test below)
        contexts, mar_queries = count_rubin(monkeypatch)
        argv = ["check", models["srs_wor_n3"], "--inference", "bayes",
                "--mar-variant", "uniform", "--json"]
        code, out, _ = run(capsys, argv)
        payload = json.loads(out)
        assert code == 0
        assert payload["flags"]["mar"] is True
        assert payload["observations_checked"] == 24
        assert len(contexts) == 1
        assert len(mar_queries) == 6

    @pytest.mark.parametrize("fail", [False, True])
    def test_mar_asked_once_per_flat_mapping(self, monkeypatch, fail):
        # the uniform flags ask MAR once per observed mapping whose columns
        # are all flat and at each observation of any other mapping, up to
        # the first where it fails.  z is the signal y on two units with
        # values 0 and 1, and the design draws (1,) with mass 1/2 whatever y
        # is (flat), and (1, 2) or (2, 1) with the other 1/2 as y_1 is 1 or
        # not: each of those two observes y whole, so MAR holds at its
        # observations, and only the second observation of (1,) is not
        # asked.  With `fail` the other 1/2 goes to (2,) when y_1 is 0; the
        # first observation of (2,), the second in order, has signals that
        # differ at unit 1, so MAR fails there and nothing after it is asked
        from ignorability_lab.cli import _rubin_flags
        from ignorability_lab.exactprob import Kernel, bernoulli, uniform
        from ignorability_lab.ignorance import Family
        from ignorability_lab.inference import prepare_rubin
        from ignorability_lab.sampling import Population, SurveyModel, iid_signal_dist, values_and_mapping

        other = (2,) if fail else (2, 1)
        pop = Population((1, 2))
        design = Kernel.from_rule(lambda y: uniform([(1,), (1, 2) if y[0] == 1 else other]))
        m = SurveyModel.create(pop, (F(1, 3),), {F(1, 3): iid_signal_dist(pop, bernoulli(F(1, 3)), z_of=lambda y: y)},
                               design=design, z_contains_y=True)
        scheme = values_and_mapping()
        observations = Family.from_survey_model(m, scheme).observation_support()
        rubin, asked = prepare_rubin(m, scheme), []  # the model's one context, which the flags read
        real = rubin.mar
        monkeypatch.setattr(rubin, "mar", lambda x: asked.append(x) or real(x))
        flags = dict(_rubin_flags(m, scheme, observations, "uniform"))
        assert [x[1] for x in observations] == [(1,), other, (1,), *([(2,), (1, 2)] if fail else [(1, 2), (2, 1)]), (1, 2)]
        assert [real(x) for x in observations] == [True, not fail, True, not fail, True, True]
        assert flags["mar"] is not fail
        assert asked == [x for i, x in enumerate(observations) if (i < 2 if fail else i != 2)]

    @pytest.mark.parametrize("extra", [[], ["--inference", "bayes"]])
    def test_oar_evaluated_once_per_mapping(self, capsys, models, monkeypatch, extra):
        # the observed-at-random flag depends only on the observed mapping:
        # srs_wor_n3 has 24 observations over 6 mappings (ordered pairs of
        # 3 units), all of which the uniform flags of a likelihood check
        # read; an all-observation Bayes check prints the local flags of its
        # headline observation only, so it reads that one mapping
        from ignorability_lab.inference import RubinContext

        mappings = []
        real = RubinContext._groups_of

        def counting(self, record):
            mappings.append(record.key)
            return real(self, record)

        monkeypatch.setattr(RubinContext, "_groups_of", counting)
        code, out, _ = run(capsys, ["check", models["srs_wor_n3"], *extra, "--json"])
        assert code == 0
        assert json.loads(out)["flags"]["oar"] is True
        assert len(set(mappings)) == len(mappings) == (1 if extra else 6)

    @pytest.mark.parametrize("name, flags, constant_calls", [("srs_wor_n3", True, 0), ("select_max", False, 3)])
    def test_flat_columns_skip_the_constant_test(self, capsys, tmp_path, monkeypatch, name, flags, constant_calls):
        # srs draws each sample with one mass whatever the values, so every
        # selection column of srs_wor_n3 is flat and the uniform flags of a
        # likelihood check (the only Rubin queries `check` makes) read mar
        # and oar off each mapping with no `_constant` test; select_max,
        # observed with its mapping, keeps by the values and is tested
        from ignorability_lab.inference import RubinContext

        calls = []
        real = RubinContext._constant

        def counting(self, record, ids):
            calls.append(ids)
            return real(self, record, ids)

        monkeypatch.setattr(RubinContext, "_constant", counting)
        path = tmp_path / f"{name}.model"
        path.write_text(CATALOG[name].replace("scheme = values_only", "scheme = values_and_mapping"))
        code, out, _ = run(capsys, ["check", str(path), "--json"])
        payload = json.loads(out)
        assert code == 0
        assert (payload["flags"]["mar"], payload["flags"]["oar"]) == (flags, flags)
        assert len(calls) == constant_calls

    def test_target_values_computed_once(self, capsys, models, monkeypatch):
        # an all-observation Bayes check evaluates the marginal target once
        # per point of each family, not once per observation
        from ignorability_lab import modelfile
        from ignorability_lab.ignorance import MarginalFunctional

        calls = []
        real = modelfile._build_target

        def counting(doc, population):
            target = real(doc, population)

            def fn(law):
                calls.append(law)
                return target.fn(law)

            return MarginalFunctional(target.name, target.var, fn)

        monkeypatch.setattr(modelfile, "_build_target", counting)
        argv = ["check", models["srs_wor_n3"], "--inference", "bayes", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["observations_checked"] == 24
        # 2 grid points, and the 2 x 6 (point, fixed nuisance value) pairs
        # add none: their laws of the signal are the point's law conditioned
        # on one compatibility set, the whole signal image, and both
        # families share one memo of marginals
        assert len(calls) == 2

    def test_default_posterior_columns_built_once(self, capsys, models, monkeypatch):
        # an all-observation Bayes check builds the posterior columns under
        # the default priors once: the verdicts and the headline witness
        # both read them
        from ignorability_lab import inference

        calls = []
        real = inference._target_columns
        monkeypatch.setattr(inference, "_target_columns", lambda *args: calls.append(args) or real(*args))
        argv = ["check", models["srs_wor_n3"], "--inference", "bayes", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["observations_checked"] == 24
        assert len(calls) == 1

    @pytest.mark.parametrize("policy", ["dirac", "arbitrary", "marginal"])
    @pytest.mark.parametrize("inference", ["likelihood", "frequentist", "bayes"])
    def test_target_values_computed_once_per_shape(self, capsys, models, monkeypatch, inference, policy):
        # every (inference, policy) shape evaluates the marginal target once
        # per distinct law of the signal of both families: the ignored laws
        # of the signal are those of the 2 grid points
        from ignorability_lab import modelfile
        from ignorability_lab.ignorance import MarginalFunctional

        calls = []
        real = modelfile._build_target

        def counting(doc, population):
            target = real(doc, population)
            return MarginalFunctional(target.name, target.var, lambda law: calls.append(law) or target.fn(law))

        monkeypatch.setattr(modelfile, "_build_target", counting)
        argv = ["check", models["srs_wor_n3"], "--inference", inference, "--policy", policy, "--json"]
        code, _, _ = run(capsys, argv)
        assert code == 0
        assert len(calls) == 2


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["check", "/nonexistent.model"])
        assert code == 2
        assert "cannot read" in err

    def test_schema_error_location(self, capsys, tmp_path):
        bad = CATALOG["srs_wor_minimal"].replace("theta = 1/3 2/3", "theta = 0.5")
        path = tmp_path / "bad.model"
        path.write_text(bad)
        code, _, err = run(capsys, ["check", str(path)])
        assert code == 2
        assert "line 5" in err and "use 1/2" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["mc-verify", "srs_wor_n3", "--draws", "0"], "--draws"),
            (["mc-verify", "srs_wor_n3", "--seed=-1"], "--seed must be in 0 .. 2^64 - 1, got -1"),
            (["mc-verify", "srs_wor_n3", f"--seed={2**64}"], f"--seed must be in 0 .. 2^64 - 1, got {2**64}"),
            (["audit-rubin", "srs_wor_n3", "--x", "[1]"], "expected (values, mapping)"),
            (["check", "srs_wor_n3", "--x", '["1/0"]'], "zero denominator"),
            (["enumerate", "srs_wor_minimal", "--theta", "1/0"], "zero denominator"),
            (["check", "srs_wor_minimal", "--x", "[1.5]"], 'float 1.5 in an observation literal; use "p/q"'),
            (["enumerate", "srs_wor_minimal", "--theta=0.5"], "--theta: decimal literal '0.5'; use 1/2"),
            (["mc-verify", "srs_wor_minimal", "--phi=1/0"], "--phi: zero denominator in '1/0'"),
            (["mc-verify", "srs_wor_minimal", "--theta=--5"], "grid point (theta='--5', phi=None) not in the model"),
            (["mc-verify", "srs_wor_minimal", "--theta=²"], "grid point (theta='²', phi=None) not in the model"),
            (["mc-verify", "srs_wor_minimal", "--phi=²"], "grid point (theta=None, phi='²') not in the model"),
        ],
        ids=[
            "mc-verify-draws-0",
            "mc-verify-seed-minus-1",
            "mc-verify-seed-2-to-the-64",
            "audit-rubin-x-shape",
            "check-x-zero-denominator",
            "enumerate-theta-zero-denominator",
            "check-x-float",
            "enumerate-theta-decimal",
            "mc-verify-phi-zero-denominator",
            "mc-verify-theta-double-minus",
            "mc-verify-theta-superscript",
            "mc-verify-phi-superscript",
        ],
    )
    def test_bad_argument(self, capsys, models, argv, message):
        argv = [argv[0], models[argv[1]], *argv[2:]]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["inclusion"], ["audit-rubin"], ["audit-rubin", "--x", "[[0],[1]]"]],
        ids=["check", "inclusion", "audit-rubin", "audit-rubin-x"],
    )
    def test_gamma_phi_on_a_model_without_phi_grid(self, capsys, tmp_path, argv):
        # a model with no phi grid has the one-point grid of phi None, which
        # a document cannot name, so a gamma that names a phi is refused at
        # its token, by every command alike
        text = CATALOG["srs_wor_minimal"].replace("scheme = values_only", "scheme = values_and_mapping")
        path = tmp_path / "gamma.model"
        path.write_text(text.replace("theta = 1/3 2/3\n", "theta = 1/3 2/3\ngamma = 1/3:5 2/3:5\n"))
        code, _, err = run(capsys, [argv[0], str(path), *argv[1:]])
        assert code == 2
        assert err == "error: line 6, col 9: gamma phi '5' not in a phi grid; add a phi line [gamma-in-grid]\n"

    @pytest.mark.parametrize(
        "model, old, new, message",
        [
            ("srs_wor_minimal", "alphabet = 0 1", "alphabet = 1/0 1", "zero denominator"),
            ("srs_wor_n3", "unit = 1", "unit = #", "missing value for key 'unit'"),
            ("bernoulli_mixture", "component 0 = 1", "component ] = 1", "component index"),
            ("srs_wor_minimal", "n = 1", "n = 1 2", "key 'n' takes one value"),
            ("bernoulli_mixture", "gamma = 1/3:1/3 1/2:1/2", "gamma =", "line 9, col 1: missing value for key 'gamma'"),
            ("stratified", "alloc = 1:1 2:1", "alloc = 1:1", "line 14, col 1: stratum 2 has no allocation"),
        ],
        ids=[
            "alphabet-zero-denominator",
            "value-only-comment",
            "component-index-word",
            "extra-value",
            "pairless-gamma",
            "uncovered-stratum",
        ],
    )
    def test_bad_model_file(self, capsys, tmp_path, model, old, new, message):
        text = CATALOG[model]
        assert old in text
        path = tmp_path / "bad.model"
        path.write_text(text.replace(old, new))
        code, _, err = run(capsys, ["check", str(path)])
        assert code == 2
        assert err.startswith("error: line ") and message in err

    @pytest.mark.parametrize(
        "scheme, x, message",
        [
            ("values_mapping_design", "[[0,0],[1,2],null]", None),
            ("values_mapping_design", "[[0,0],[1,2]]", "expected (values, mapping, z)"),
            ("values_mapping_design", "[0,[1,2],null]", "values part must be a tuple, got 0"),
            ("values_mapping_design", "[[0,7],[1,2],null]", "value 7 not in the signal alphabet"),
            ("values_mapping_design", "[[0,0],1,null]", "mapping part must be a tuple, got 1"),
            ("values_mapping_design", "[[0,0],[1,9],null]", "unit 9 not in the population"),
            ("values_mapping_design", "[[0],[1,2],null]", "values and mapping lengths differ"),
            ("values_and_sampled_weights", '[[0,"1/4"]]', None),
            ("values_and_sampled_weights", "0", "expected tuple of (value, weight) pairs"),
            ("values_and_sampled_weights", "[0]", "expected (value, weight) pairs"),
            ("values_and_sampled_weights", "[[0]]", "expected (value, weight) pairs"),
            ("values_and_sampled_weights", '[[7,"1/4"]]', "value 7 not in the signal alphabet"),
            ("values_and_sampled_weights", '[[0,"1/3"]]', 'observation [[0,"1/3"]] has zero mass at every grid point'),
        ],
    )
    def test_x_under_design_schemes(self, capsys, tmp_path, scheme, x, message):
        # --x under the schemes that expose the design: (values, mapping, z)
        # on srs_wor_n3, and (value, inclusion probability) pairs on the
        # Poisson design of sampled_weights
        if scheme == "values_mapping_design":
            text = CATALOG["srs_wor_n3"].replace("scheme = values_and_mapping", f"scheme = {scheme}")
        else:
            text = CATALOG["sampled_weights"]
        path = tmp_path / "design_scheme.model"
        path.write_text(text)
        code, out, err = run(capsys, ["check", str(path), "--x", x, "--json"])
        if message is None:
            assert (code, err) == (0, "")
            assert json.loads(out)["witnesses"][0]["detail"]["original"]
        else:
            assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "inference, kind, message",
        [
            ("frequentist", None, "the sample mean needs numeric values; observed value 'hi' is not a number"),
            *((inference, kind, f"line 20, col 8: target kind '{kind}' averages signal values; "
                                "alphabet value 'lo' is not a number [numeric-alphabet]")
              for kind in ("unit_expectation", "population_mean")
              for inference in ("likelihood", "frequentist", "bayes")),
        ],
    )
    def test_word_alphabet(self, capsys, tmp_path, inference, kind, message):
        # a target or estimator that averages signal values refuses words
        text = CATALOG["srs_wor_minimal"].replace("alphabet = 0 1", "alphabet = lo hi")
        text = text.replace("0:2/3 1:1/3", "lo:2/3 hi:1/3").replace("0:1/3 1:2/3", "lo:1/3 hi:2/3")
        if kind is not None:
            text += f"\n[target]\nkind = {kind}\n"
        path = tmp_path / "words.model"
        path.write_text(text)
        code, out, err = run(capsys, ["check", str(path), "--inference", inference])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @staticmethod
    def impossible_x(case, tmp_path, models) -> tuple:
        """(model path, x) of a well-formed x of zero mass at every grid
        point of the model.  The rule is judged on the original model, so
        an x that only the ignored family makes possible is an input error
        too."""
        from ignorability_lab import modelfile
        from ignorability_lab.inference import prepare
        from ignorability_lab.ignorance import dirac_fix

        if case == "srs-unit-drawn-twice":
            return models["srs_wor_n3"], "[[1,1],[1,1]]"
        if case == "census-empty-sample":
            return models["census"], "[[],[]]"
        # select_max keeps unit 1 on a tie, so value 1 at unit 2 is
        # impossible; ignoring the selection spreads it over every unit
        text = CATALOG["select_max"].replace(
            "scheme = values_only", "scheme = values_and_mapping"
        )
        path, x = str(tmp_path / "select_max_mapping.model"), "[[1],[2]]"
        (tmp_path / "select_max_mapping.model").write_text(text)
        b = modelfile.parse_model(text).build()
        ignored = prepare(b.model, (b.v, b.v_bar), b.scheme, b.target, dirac_fix()).ignored
        assert ignored.observation_code(parse_observation_literal(x)) is not None
        return path, x

    IMPOSSIBLE_X = ["srs-unit-drawn-twice", "select-max-only-after-ignoring", "census-empty-sample"]

    @pytest.mark.parametrize("inference", ["likelihood", "frequentist", "bayes"])
    @pytest.mark.parametrize("case", IMPOSSIBLE_X)
    def test_impossible_x(self, capsys, tmp_path, models, monkeypatch, inference, case):
        # rejected alike for every inference type, before any equivalence
        # test runs
        from ignorability_lab.inference import PreparedCheck

        path, x = self.impossible_x(case, tmp_path, models)

        def no_test(*args):
            raise AssertionError("an equivalence test ran")

        monkeypatch.setattr(PreparedCheck, "test", no_test)
        code, out, err = run(capsys, ["check", path, "--inference", inference, "--x", x])
        assert code == 2
        assert out == ""
        assert err == f"error: observation {x} has zero mass at every grid point\n"

    @pytest.mark.parametrize("case", IMPOSSIBLE_X)
    def test_impossible_x_audit_rubin(self, capsys, tmp_path, models, monkeypatch, case):
        # the same x and message as `check`, before any theorem is audited
        from ignorability_lab.inference import RubinContext

        path, x = self.impossible_x(case, tmp_path, models)

        def no_audit(*args):
            raise AssertionError("an audit ran")

        monkeypatch.setattr(RubinContext, "audit", no_audit)
        code, out, err = run(capsys, ["audit-rubin", path, "--x", x])
        assert (code, out, err) == (2, "", f"error: observation {x} has zero mass at every grid point\n")

    @pytest.mark.parametrize("command", ["check", "audit-rubin"])
    @pytest.mark.parametrize("x, message", [
        ("[[7,1],[1,2]]", "value 7 not in the signal alphabet"),
        ("[[0,1],[1,9]]", "unit 9 not in the population"),
        ("[[0],[1,2]]", "values and mapping lengths differ"),
    ], ids=["value-outside-alphabet", "unit-outside-population", "fewer-values-than-units"])
    def test_malformed_x_as_the_rubin_queries_refuse_it(self, capsys, models, command, x, message):
        # the command line refuses a malformed x with the error each Rubin
        # query raises for it
        from ignorability_lab.inference import RubinContext
        from ignorability_lab.modelfile import parse_model
        from ignorability_lab.sampling import UnknownObservation

        rubin = RubinContext(parse_model(CATALOG["srs_wor_n3"]).build().model)
        for kind in ("mar", "oar", "possible", "audit"):
            with pytest.raises(UnknownObservation) as info:
                getattr(rubin, kind)(parse_observation_literal(x))
            assert str(info.value) == message
        code, out, err = run(capsys, [command, models["srs_wor_n3"], "--x", x])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["check", "audit-rubin"])
    @pytest.mark.parametrize("x", ["[[true,1],[1,2]]", "[[1,1],[false,2]]"])
    def test_boolean_in_x(self, capsys, models, command, x):
        # a JSON boolean is not the number 1 or 0 of the alphabet or the units
        code, out, err = run(capsys, [command, models["srs_wor_n3"], "--x", x])
        word = "true" if "true" in x else "false"
        assert (code, out, err) == (2, "", f"error: boolean {word} in an observation literal\n")

    @pytest.mark.parametrize("command", ["check", "audit-rubin"])
    @pytest.mark.parametrize(
        "depth, message",
        [
            # decoded, then refused by the shape check
            (100, "expected (values, mapping)"),
            # refused before the decoder's or the JSON parser's recursion limit
            *((depth, "observation literal nested deeper than 100 levels") for depth in (101, 330, 5000)),
        ],
    )
    def test_deeply_nested_x(self, capsys, models, command, depth, message):
        x = "[" * depth + "]" * depth
        code, out, err = run(capsys, [command, models["srs_wor_n3"], "--x", x])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_model_file_not_utf8(self, capsys, tmp_path):
        # a Latin-1 comment
        text = CATALOG["srs_wor_n3"]
        assert "labels" in text
        path = tmp_path / "latin1.model"
        path.write_bytes(text.replace("labels", "\xe9tiquettes").encode("latin-1"))
        code, out, err = run(capsys, ["check", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read model file: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("inference", ["likelihood", "frequentist", "bayes"])
    def test_label_target_that_does_not_restrict(self, capsys, tmp_path, inference):
        # every Dirac-fixed law of srs_wor_n3 is a new law, so the grid label
        # has no counterpart in the ignored family; bayes checks every x
        text = CATALOG["srs_wor_n3"].replace("kind = unit_expectation\nunit = 1\n", "kind = grid_label\n")
        assert "kind = grid_label" in text
        path = tmp_path / "grid_label.model"
        path.write_text(text)
        code, out, err = run(capsys, ["check", str(path), "--inference", inference])
        assert (code, out) == (2, "")
        assert err.startswith("error: ignored law at ") and err.endswith("the label target does not restrict\n")

    @pytest.mark.parametrize("policy", ["marginal", "arbitrary"])
    @pytest.mark.parametrize("inference", ["likelihood", "frequentist", "bayes"])
    def test_label_target_with_conflicting_values(self, capsys, tmp_path, policy, inference):
        # both thetas have one signal law, so the one ignored law matches
        # originals of both labels
        old, new = "iid 2/3 = 0:1/3 1:2/3", "iid 2/3 = 0:2/3 1:1/3"
        assert old in CATALOG["srs_wor_minimal"]
        text = CATALOG["srs_wor_minimal"].replace(old, new) + "\n[target]\nkind = grid_label\n"
        path = tmp_path / "conflicting.model"
        path.write_text(text)
        code, out, err = run(capsys, ["check", str(path), "--policy", policy, "--inference", inference])
        assert (code, out) == (2, "")
        assert err.startswith("error: ignored law at ") and err.endswith("matches originals with conflicting target values\n")

    def test_bad_support_cap(self, capsys, models, monkeypatch):
        monkeypatch.setenv("IGNORABILITY_LAB_MAX_SUPPORT", "abc")
        code, _, err = run(capsys, ["check", models["srs_wor_n3"]])
        assert code == 2
        assert err.startswith("error:") and "IGNORABILITY_LAB_MAX_SUPPORT" in err

    def test_crash_exits_3(self, capsys, models, monkeypatch):
        # an internal error must not exit 1, the code of an --expect mismatch
        from ignorability_lab import cli

        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_inclusion", crash)
        code, out, err = run(capsys, ["inclusion", models["poisson"]])
        assert code == 3
        assert out == ""
        assert "Traceback" in err and err.rstrip().endswith("RuntimeError: boom")


GOLDEN = Path(__file__).parent / "golden"


def golden_stdout(case):
    return json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))["stdout"]


def fresh_process_env():
    """The environment of a new interpreter process that imports this
    package."""
    import ignorability_lab

    src = str(Path(ignorability_lab.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def fresh_process_stdout(argv):
    """stdout of the command run as a new interpreter process."""
    done = subprocess.run(
        [sys.executable, "-m", "ignorability_lab", *argv],
        env=fresh_process_env(), capture_output=True, text=True, check=True,
    )
    return done.stdout


ROOT = Path(__file__).parent.parent


def test_uncovered_lists_the_lines_no_test_runs():
    # tests/test_imports.py parses the engine's sources and imports none of
    # them, so no line of `cli.console` runs under it
    from ignorability_lab.cli import console

    lines, start = inspect.getsourcelines(console)
    at = start + next(i for i, line in enumerate(lines) if line.strip() == "code = main()")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "uncovered.py"), "-q", str(ROOT / "tests" / "test_imports.py")],
        env=fresh_process_env(), cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"src/ignorability_lab/cli.py:{at}:     code = main()\n" in done.stdout
    assert "src/ignorability_lab/cli.py: " in done.stdout and " lines not run\n" in done.stdout


class TestClosedStdout:
    """A reader that closes stdout early ends the command with exit code
    141 and nothing on stderr, with stdout buffered as it is by default."""

    def run_closing(self, argv, lines_read):
        env = fresh_process_env()
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "ignorability_lab", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(lines_read):
            proc.stdout.readline()
        proc.stdout.close()
        _out, err = proc.communicate(timeout=120)
        return proc.returncode, err

    def test_closed_while_writing(self, models):
        # the stdout of this check is larger than a pipe holds, so the
        # command is still writing when the reader goes away
        assert len(golden_stdout("check.stratified.likelihood.dirac")) > 2**17
        assert self.run_closing(["check", models["stratified"], "--json"], 1) == (141, b"")

    def test_closed_before_the_first_write(self):
        # the output waits in the buffer, which the flush at exit would
        # write to the closed pipe again
        assert self.run_closing(["examples", "--name", "select_max"], 0) == (141, b"")

    def test_main_leaves_the_descriptors_alone(self, monkeypatch):
        # in-process callers keep their stdout: only the process entry
        # points it at devnull
        from ignorability_lab import cli

        def closed(args):
            raise BrokenPipeError

        dup2, moved = os.dup2, []
        monkeypatch.setattr(cli, "cmd_examples", closed)
        monkeypatch.setattr(os, "dup2", lambda *fds: moved.append(fds) or dup2(*fds))
        assert cli.main(["examples"]) == 141
        assert moved == []


class TestParserReuse:
    """Several commands in one process share one argument parser."""

    def test_built_once(self, capsys, models, monkeypatch):
        from ignorability_lab import cli

        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        monkeypatch.setattr(cli, "_parser", None, raising=False)
        for argv in (
            ["inclusion", models["poisson"], "--json"],
            ["examples", "--name", "poisson"],
            ["check", models["poisson"], "--json"],
        ):
            code, _, _ = run(capsys, argv)
            assert code == 0
        assert len(built) == 1

    def test_sequence_matches_separate_runs(self, capsys, models):
        path = models["srs_wor_n3"]
        with pytest.raises(SystemExit) as exc:
            main(["check", path, "--inference", "nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

        code, out, _ = run(capsys, ["check", path, "--inference", "likelihood", "--policy", "dirac", "--json"])
        assert code == 0
        assert out == golden_stdout("check.srs_wor_n3.likelihood.dirac")

        argv = ["check", path, "--x", "[[1,0],[1,2]]", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == fresh_process_stdout(argv)

        code, out, _ = run(capsys, ["enumerate", path, "--json"])
        assert code == 0
        assert out == golden_stdout("enumerate.srs_wor_n3")


@pytest.fixture(scope="module")
def catalog_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("catalog")
    for name, text in CATALOG.items():
        (folder / f"{name}.model").write_text(text)
    return {name: str(folder / f"{name}.model") for name in CATALOG}


CHECKS = [
    (name, "--inference", inference, "--policy", policy)
    for name in CATALOG
    for inference in ("likelihood", "frequentist", "bayes")
    for policy in ("dirac", "arbitrary", "marginal")
]
OTHERS = [
    *CHECKS,
    ("srs_wor_n3", "--x", "[[1,0],[1,2]]"),
    *((name,) for name in ("select_max", "srs_wr_duplicates", "sampled_weights")),
]


def captured_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestRepeatedCommands:
    """A command run twice in one process prints the same bytes, whatever
    ran between: no per-process store (the argument parser, a model's Rubin
    context, a family's target values) leaks from one command into another."""

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(CHECKS),
        between=st.lists(
            st.tuples(st.sampled_from(["check", "enumerate", "audit-rubin", "inclusion"]), st.sampled_from(OTHERS)),
            max_size=3,
        ),
    )
    def test_check_json_repeats(self, catalog_paths, command, between):
        def argv(name, *rest, verb="check"):
            return [verb, catalog_paths[name], *(rest if verb == "check" else ()), "--json"]

        first = captured_run(argv(*command))
        for verb, (name, *rest) in between:
            captured_run(argv(name, *rest, verb=verb))
        assert captured_run(argv(*command)) == first


# the mixture's phi labels 1/3 and 1/2 written as the integers 1 and 2
INTEGER_PHI = (
    ("phi = 1/3 1/2", "phi = 1 2"),
    ("gamma = 1/3:1/3 1/2:1/2", "gamma = 1/3:1 1/2:2"),
    ("weights 1/3 =", "weights 1 ="),
    ("weights 1/2 =", "weights 2 ="),
)
# the minimal model's theta labels 1/3 and 2/3 written as the integers 1 and 2
INTEGER_THETA = (("theta = 1/3 2/3", "theta = 1 2"), ("iid 1/3 =", "iid 1 ="), ("iid 2/3 =", "iid 2 ="))


class TestEnumerate:
    def test_human(self, capsys, models):
        code, out, _ = run(
            capsys, ["enumerate", models["srs_wor_minimal"], "--theta", "1/3"]
        )
        assert code == 0
        assert "worlds" in out and "observations" in out

    def test_json(self, capsys, models):
        code, out, _ = run(
            capsys, ["enumerate", models["srs_wor_minimal"], "--theta", "1/3", "--json"]
        )
        payload = json.loads(out)
        assert payload["type"] == "enumeration"
        assert payload["theta"] == "1/3"
        assert len(payload["joint"]["dist"]) == 8

    def test_unknown_theta(self, capsys, models):
        code, _, err = run(
            capsys, ["enumerate", models["srs_wor_minimal"], "--theta", "1/5"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "model, edits, args, point",
        [
            ("bernoulli_mixture", (), ["--phi", "1/2"], ["1/2", "1/2"]),
            ("bernoulli_mixture", INTEGER_PHI, ["--phi", "2"], ["1/2", 2]),
            ("bernoulli_mixture", INTEGER_PHI, ["--theta", "1/2", "--phi", "2"], ["1/2", 2]),
            ("srs_wor_minimal", INTEGER_THETA, ["--theta", "2"], [2, None]),
            ("srs_wor_minimal", INTEGER_THETA, ["--theta", "-1"], None),
            # words, as in a model file: neither is the integer it may look like
            ("srs_wor_minimal", INTEGER_THETA, ["--theta=--5"], None),
            ("srs_wor_minimal", INTEGER_THETA, ["--theta=²"], None),
            ("bernoulli_mixture", INTEGER_PHI, ["--phi=²"], None),
            ("srs_wor_minimal", (), ["--theta="], None),  # the empty word, not the first point
        ],
        ids=[
            "phi-skips-a-point",
            "integer-phi",
            "integer-phi-and-theta",
            "integer-theta",
            "negative-integer-theta",
            "double-minus-theta",
            "superscript-theta",
            "superscript-phi",
            "empty-theta",
        ],
    )
    def test_grid_point_from_labels(self, capsys, tmp_path, model, edits, args, point):
        text = CATALOG[model]
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "grid.model"
        path.write_text(text)
        code, out, err = run(capsys, ["enumerate", str(path), *args, "--json"])
        if point is None:
            assert code == 2 and "not in the model" in err
        else:
            assert code == 0
            payload = json.loads(out)
            assert [payload["theta"], payload["phi"]] == point


class TestInclusion:
    def test_identities_reported(self, capsys, models):
        code, out, _ = run(capsys, ["inclusion", models["poisson"], "--json"])
        payload = json.loads(out)
        block = payload["designs"][0]
        assert block["pi"] == ["1/2", "1/2"]
        assert block["sum_pi"] == block["expected_distinct_size"]
        assert block["sum_upsilon"] == block["expected_size"]

    def test_stratified_human(self, capsys, models):
        code, out, _ = run(capsys, ["inclusion", models["stratified"]])
        assert code == 0
        assert "pi=1/2" in out


def every_eighth_mutant(capsys, tmp_path, monkeypatch, argv):
    """Run `argv` + [path] on every eighth distinct parseable document of the
    parser's mutant corpus, asserting that no run ends in a traceback, and
    yield (document index, exit code, stdout, stderr) for each."""
    from test_modelfile import diagnostics_corpus
    from ignorability_lab.modelfile import ModelFileError, parse_model

    monkeypatch.setenv("IGNORABILITY_LAB_MAX_SUPPORT", "20000")
    documents = []
    for text in dict.fromkeys(diagnostics_corpus()):
        with contextlib.suppress(ModelFileError):
            parse_model(text)
            documents.append(text)
    assert len(documents) == 1_954
    path = tmp_path / "mutant.model"
    for index in range(0, len(documents), 8):
        path.write_text(documents[index])
        code, out, err = run(capsys, [*argv[:1], str(path), *argv[1:]])
        assert code != 3, (index, err)
        yield index, code, out, err


# audit-rubin over every eighth distinct parseable mutant of the catalog
AUDIT_RUBIN_MUTANTS_DIGEST = "83a47b548cb7caacd53606157e01dd975a52751f40845a4b5b883847e977780b"


class TestAuditRubin:
    def test_sweep(self, capsys, models):
        code, out, _ = run(capsys, ["audit-rubin", models["srs_wor_n3"], "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["counterexamples"] == 0
        assert payload["observations"] > 0

    def test_single_x(self, capsys, models):
        code, out, _ = run(
            capsys,
            ["audit-rubin", models["srs_wor_n3"], "--x", "[[1,0],[1,2]]"],
        )
        assert code == 0
        assert "theorem" in out

    def test_observations_listed_without_a_world_space(self, capsys, models, monkeypatch):
        # without --x every catalog model whose scheme exposes the mapping
        # prints the same bytes with Family and the world space refused
        from ignorability_lab.ignorance import Family
        from ignorability_lab.sampling import SurveyModel

        names = [name for name, text in CATALOG.items()
                 if "scheme = values_and_mapping" in text or "scheme = values_mapping_design" in text]
        want = {name: run(capsys, ["audit-rubin", models[name], "--json"]) for name in names}
        for cls, name in ((Family, "from_survey_model"), (SurveyModel, "world_space")):
            monkeypatch.setattr(cls, name, lambda *args: pytest.fail("a world space was built"))
        for name in names:
            assert run(capsys, ["audit-rubin", models[name], "--json"]) == want[name], name
            assert want[name][0] == 0, name

    def test_model_past_the_cap_exits_2(self, capsys, models, monkeypatch):
        # srs_wor_n3: 8 signals and 6 mappings make 48 worlds
        monkeypatch.setenv("IGNORABILITY_LAB_MAX_SUPPORT", "47")
        code, out, err = run(capsys, ["audit-rubin", models["srs_wor_n3"], "--json"])
        assert (code, out) == (2, "")
        assert "world space of size 48 exceeds cap 47" in err

    def test_values_only_rejected(self, capsys, models):
        code, _, err = run(capsys, ["audit-rubin", models["select_max"]])
        assert code == 2
        assert "mapping" in err

    def test_one_context_and_one_joint_per_grid_point(self, capsys, models, monkeypatch):
        from ignorability_lab import inference

        contexts, _ = count_rubin(monkeypatch)
        real = inference.RubinContext._audit_tables
        builds = []  # joints built by each fresh build of the audit tables

        def counting(self):
            if self._tables is None:
                builds.append(len(real(self)[2]))
            return real(self)

        monkeypatch.setattr(inference.RubinContext, "_audit_tables", counting)
        code, out, _ = run(capsys, ["audit-rubin", models["srs_wor_n3"], "--json"])
        assert code == 0
        assert json.loads(out)["observations"] == 24
        assert len(contexts) == 1
        assert builds == [len(contexts[0].atoms.grid)]

    def test_mapping_flags_built_once_per_mapping(self, capsys, models, monkeypatch):
        # the 6.x flags read only the observed mapping: srs_wor_n3 has 24
        # observations over 6 mappings (ordered pairs of 3 units)
        from ignorability_lab.inference import RubinContext

        mappings = []
        real = RubinContext._mapping_flags

        def counting(self, record):
            mappings.append(record.key)
            return real(self, record)

        monkeypatch.setattr(RubinContext, "_mapping_flags", counting)
        code, out, _ = run(capsys, ["audit-rubin", models["srs_wor_n3"], "--json"])
        assert code == 0
        assert json.loads(out)["observations"] == 24
        assert len(set(mappings)) == len(mappings) == 6

    def test_every_eighth_parseable_mutant(self, capsys, tmp_path, monkeypatch):
        # a slice of the engine-level mutant sweep: audit-rubin, each run the
        # first audit on a cold context; one digest over (document index,
        # exit code, first stderr line) pins which documents are refused and
        # with which message
        digest = hashlib.sha256()
        for index, code, _out, err in every_eighth_mutant(capsys, tmp_path, monkeypatch, ["audit-rubin"]):
            digest.update(f"{index} {code} {err.partition(chr(10))[0]}\n".encode())
        assert digest.hexdigest() == AUDIT_RUBIN_MUTANTS_DIGEST


def mutant_digest(capsys, tmp_path, monkeypatch, argv) -> str:
    """SHA-256 over (document index, exit code, first stderr line, SHA-256
    of stdout) of `argv` on every eighth parseable mutant: it pins the
    output of every run as well as its refusals."""
    digest = hashlib.sha256()
    for index, code, out, err in every_eighth_mutant(capsys, tmp_path, monkeypatch, argv):
        first = err.partition(chr(10))[0]
        digest.update(f"{index} {code} {first} {hashlib.sha256(out.encode()).hexdigest()}\n".encode())
    return digest.hexdigest()


# `check --json` under each inference type, and `enumerate --json`, over
# the same mutants as audit-rubin: the rest of the engine-level sweep
CHECK_AND_ENUMERATE_MUTANTS_DIGESTS = {
    "likelihood": "0702b6603c39a13e2ee263b98a4b9f72bff24360925d0fc460578d76c96e9ea9",
    "frequentist": "1c67827913ba3b1ad8a1c957aa24d274930ce36c71f5d8ebd58c34b1944c11bc",
    "bayes": "898f141d9e206de0840687e951d2ae5051868e6a8cc06bba0850054c9b49ad2a",
    "enumerate": "54808c5b6002788c9396ffb819cac0fb1029f7b69d9408f33345dc019918ccf2",
}


@pytest.mark.parametrize("name", sorted(CHECK_AND_ENUMERATE_MUTANTS_DIGESTS))
def test_every_eighth_parseable_mutant(capsys, tmp_path, monkeypatch, name):
    argv = ["enumerate", "--json"] if name == "enumerate" else ["check", "--inference", name, "--json"]
    assert mutant_digest(capsys, tmp_path, monkeypatch, argv) == CHECK_AND_ENUMERATE_MUTANTS_DIGESTS[name]


# mc-verify --json --draws 4097 --seed 1 over the same mutants
MC_VERIFY_MUTANTS_DIGEST = "0666c1999ef189d60ba1ce541740a716947cbe0aac8d8461b8734d6dd3ef3768"


class TestMcVerify:
    def test_every_eighth_parseable_mutant(self, capsys, tmp_path, monkeypatch):
        # 4,097 draws cross a block edge
        argv = ["mc-verify", "--json", "--draws", "4097", "--seed", "1"]
        assert mutant_digest(capsys, tmp_path, monkeypatch, argv) == MC_VERIFY_MUTANTS_DIGEST

    def test_small_run(self, capsys, models):
        code, out, _ = run(
            capsys,
            ["mc-verify", models["srs_wor_minimal"], "--draws", "2000", "--seed", "7"],
        )
        assert code == 0
        assert "draws=2000" in out

    def test_json_deterministic(self, capsys, models):
        argv = [
            "mc-verify",
            models["select_max"],
            "--draws",
            "5000",
            "--seed",
            "3",
            "--json",
        ]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["draws"] == 5000


class TestExamples:
    def test_list_all(self, capsys):
        code, out, _ = run(capsys, ["examples"])
        assert code == 0
        for name in CATALOG:
            assert name in out

    def test_single(self, capsys):
        code, out, _ = run(capsys, ["examples", "--name", "select_max"])
        assert code == 0
        assert out == CATALOG["select_max"]

    def test_write_dir(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["examples", "--dir", str(tmp_path / "ex")])
        assert code == 0
        written = out.strip().splitlines()
        assert len(written) == len(CATALOG)

    @pytest.mark.parametrize("where", ["under_a_file", "a_file", "a_model_path_is_a_directory"])
    def test_unwritable_dir(self, capsys, tmp_path, where):
        (tmp_path / "file").write_text("")
        if where == "under_a_file":
            target = tmp_path / "file" / "ex"
        elif where == "a_file":
            target = tmp_path / "file"
        else:
            target = tmp_path / "ex"
            (target / f"{next(iter(CATALOG))}.model").mkdir(parents=True)
        code, out, err = run(capsys, ["examples", "--dir", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write the examples: [Errno ") and err.count("\n") == 1

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, ["examples", "--name", "nope"])
        assert code == 2
