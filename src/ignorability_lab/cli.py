"""Command-line front end.

Commands:
  check       classify a nuisance process as ignorable or informative
  enumerate   dump the exact joint and observation distributions
  inclusion   inclusion probabilities, selection expectations, size identities
  audit-rubin evaluate the missing-data theorems on the model
  mc-verify   seeded simulation cross-check against the exact engine
  examples    emit the built-in example catalog

Exit codes: 0 success, 1 verdict contradicts --expect, 2 input error,
3 internal error (the traceback goes to stderr), 141 stdout closed by its
reader (128 + SIGPIPE; nothing goes to stderr).
Observation literals are JSON: values-only `[1,0]`, values-and-mapping
`[[1,0],[2,1]]`; strings of the form "p/q" are read as exact rationals.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .catalog import CATALOG
from .exactprob import EngineError, canonical_key, pushforward, replace
from .ignorance import Family
from .inference import (
    BAYESIAN,
    FREQUENTIST,
    IGNORABLE,
    LIKELIHOOD_BASED,
    NotRubinShape,
    default_estimator,
    prepare,
    prepare_rubin,
)
from .ignorance import dirac_fix, marginal_family, single_arbitrary
from .mc import compare_exact_vs_mc
from .modelfile import label_value, parse_model
from .reports import (
    classification_payload,
    emit_report,
    machine_json,
    rubin_payload,
    to_jsonable,
)
from .sampling import (
    build_joint,
    expected_distinct_size,
    expected_size,
    inclusion_probabilities,
    observation_fn,
    selection_expectations,
    validate_observation,
)

_RATIONAL = re.compile(r"^-?\d+/\d+$")
_ZERO_MASS = "observation {} has zero mass at every grid point"  # an impossible --x

POLICIES = {
    "dirac": dirac_fix,
    "arbitrary": single_arbitrary,
    "marginal": marginal_family,
}


# levels of an observation literal: far more than any scheme's observations
# have, and far fewer than the interpreter's recursion limit
_MAX_NESTING = 100


def _decode_literal(value, levels=_MAX_NESTING):
    if isinstance(value, list):
        if not levels:
            raise EngineError(f"observation literal nested deeper than {_MAX_NESTING} levels")
        return tuple(_decode_literal(v, levels - 1) for v in value)
    if isinstance(value, str) and _RATIONAL.match(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise EngineError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        raise EngineError(f"float {value!r} in an observation literal; use \"p/q\"")
    if isinstance(value, bool):
        raise EngineError(f"boolean {json.dumps(value)} in an observation literal")
    return value


def parse_observation_literal(text: str):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise EngineError(f"observation literal is not valid JSON: {err}") from None
    except RecursionError:
        raise EngineError(f"observation literal nested deeper than {_MAX_NESTING} levels") from None
    return _decode_literal(raw)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise EngineError(f"cannot read model file: {err}") from None
    return parse_model(text).build()


def _grid_label(option, text):
    """The label a --theta or --phi names, read as the same text in a model
    file reads; a refusal names the option."""
    try:
        return label_value(text)
    except ValueError as err:
        raise EngineError(f"{option}: {err}") from None


def _find_point(model, theta_text, phi_text):
    if theta_text is None and phi_text is None:
        return model.grid[0]
    wanted_theta = _grid_label("--theta", theta_text) if theta_text is not None else None
    wanted_phi = _grid_label("--phi", phi_text) if phi_text is not None else None
    for theta, phi in model.grid:
        if wanted_theta is not None and canonical_key(theta) != canonical_key(wanted_theta):
            continue
        if wanted_phi is not None and canonical_key(phi) != canonical_key(wanted_phi):
            continue
        return (theta, phi)
    raise EngineError(
        f"grid point (theta={theta_text!r}, phi={phi_text!r}) not in the model"
    )


def _rubin_flags(m, scheme, observations, variant) -> tuple:
    """Missing-at-random / observed-at-random flags that hold when the
    condition holds at every one of `observations`, read from the model's
    Rubin context; none when the model and scheme are not in the shape
    those checks require (`prepare_rubin` or a query raises NotRubinShape)."""
    try:
        mar, oar = prepare_rubin(m, scheme).flags(observations)
    except NotRubinShape:
        return ()
    return (("mar", mar), ("oar", oar), ("mar_variant", variant))


def cmd_check(args) -> int:
    build = _load(args.model)
    estimator = default_estimator(build.scheme) if args.inference == FREQUENTIST else None
    x = None
    if args.x is not None:
        x = parse_observation_literal(args.x)
        validate_observation(build.model, build.scheme, x)
    prepared = prepare(
        build.model,
        (build.v, build.v_bar),
        build.scheme,
        build.target,
        POLICIES[args.policy](),
    )
    observations = prepared.family.observation_support()
    if x is not None and prepared.family.observation_code(x) is None:
        raise EngineError(_ZERO_MASS.format(args.x))

    verdicts = None
    if args.inference == BAYESIAN and x is None:
        # posterior checks are per observation: every verdict from one pass
        # over the columns, the report of the headline observation only (the
        # first informative one, or the first one)
        verdicts = prepared.posterior_verdicts()
        x = observations[verdicts.index(False) if False in verdicts else 0]
    # estimator-distribution families are observation-free, and likelihood
    # without a concrete x runs in uniform mode (one alpha jointly across
    # all observations)
    o = None if args.inference == FREQUENTIST else x
    headline = prepared.test(args.inference, o, estimator)
    if verdicts is None:
        verdicts = [headline.verdict == IGNORABLE]
    informative = verdicts.count(False)
    if o is None or args.mar_variant == "uniform":
        extra = _rubin_flags(build.model, build.scheme, observations, "uniform")
    else:
        extra = _rubin_flags(build.model, build.scheme, [o], "local")
    headline = replace(headline, flags=headline.flags + extra)
    overall = "informative" if informative else "ignorable"

    if args.json:
        payload = classification_payload(headline)
        payload["verdict"] = overall
        if len(verdicts) > 1:
            payload["observations_checked"] = len(verdicts)
            payload["informative_observations"] = informative
        print(machine_json(payload))
    else:
        if len(verdicts) > 1:
            print(
                f"checked {len(verdicts)} observations: "
                f"{informative} informative"
            )
        print(emit_report(headline))
        if informative:
            print(f"\noverall verdict: {overall}")
    if args.expect and args.expect != overall:
        return 1
    return 0


def cmd_enumerate(args) -> int:
    build = _load(args.model)
    theta, phi = _find_point(build.model, args.theta, args.phi)
    joint = build_joint(build.model, theta, phi)
    obs = pushforward(joint, observation_fn(build.model, phi, build.scheme))
    payload = {
        "type": "enumeration",
        "theta": theta,
        "phi": phi,
        "joint": joint,
        "observation": obs,
    }
    if args.json:
        print(machine_json(payload))
    else:
        print(f"grid point theta={theta} phi={phi}")
        print("\nworlds (y | z | r -> mass):")
        for w, mass in joint.items:
            print(f"  {w.y} | {w.z} | {w.r} -> {mass}")
        print("\nobservations:")
        for o, mass in obs.items:
            print(f"  {json.dumps(to_jsonable(o))} -> {mass}")
    return 0


def cmd_inclusion(args) -> int:
    build = _load(args.model)
    m = build.model
    pop = m.population
    blocks = []
    for phi, kernel in m.designs.items():
        for z, delta in kernel.entries:
            pi = inclusion_probabilities(delta, pop)
            ups = selection_expectations(delta, pop)
            blocks.append(
                {
                    "phi": phi,
                    "z": z,
                    "pi": pi,
                    "upsilon": ups,
                    "sum_pi": sum(pi, Fraction(0)),
                    "expected_distinct_size": expected_distinct_size(delta),
                    "sum_upsilon": sum(ups, Fraction(0)),
                    "expected_size": expected_size(delta),
                }
            )
    payload = {"type": "inclusion", "population": pop.labels, "designs": blocks}
    if args.json:
        print(machine_json(payload))
    else:
        for b in to_jsonable(blocks):  # the human form prints the JSON values
            print(f"phi={b['phi']} z={b['z']}")
            for k, pi_k, u_k in zip(pop.labels, b["pi"], b["upsilon"]):
                print(f"  unit {k}: pi={pi_k} upsilon={u_k}")
            print(
                f"  sum pi = {b['sum_pi']} = expected distinct size "
                f"{b['expected_distinct_size']}; sum upsilon = {b['sum_upsilon']} "
                f"= expected size {b['expected_size']}"
            )
    return 0


def cmd_audit_rubin(args) -> int:
    build = _load(args.model)
    rubin = prepare_rubin(build.model, build.scheme)
    if args.x is not None:
        xs = [parse_observation_literal(args.x)]
        validate_observation(build.model, build.scheme, xs[0])
        if not rubin.possible(xs[0]):
            raise EngineError(_ZERO_MASS.format(args.x))
    else:
        xs = Family.from_survey_model(build.model, build.scheme).observation_support()
    reports = [rubin.audit(x) for x in xs]
    counterexamples = sum(
        1 for r in reports for a in r.audits if a.counterexample()
    )
    if args.json:
        print(
            machine_json(
                {
                    "type": "rubin_audit_sweep",
                    "observations": len(reports),
                    "counterexamples": counterexamples,
                    "audits": [rubin_payload(r) for r in reports],
                }
            )
        )
    else:
        for r in reports:
            print(emit_report(r))
            print()
        print(f"observations audited: {len(reports)}; counterexamples: {counterexamples}")
    return 0


def cmd_mc_verify(args) -> int:
    build = _load(args.model)
    if args.draws < 1:
        raise EngineError(f"--draws must be at least 1, got {args.draws}")
    if not 0 <= args.seed < 2**64:
        raise EngineError(f"--seed must be in 0 .. 2^64 - 1, got {args.seed}")
    theta, phi = _find_point(build.model, args.theta, args.phi)
    report = compare_exact_vs_mc(
        build.model,
        theta,
        phi,
        scheme=build.scheme,
        draws=args.draws,
        seed=args.seed,
    )
    print(emit_report(report, json_form=args.json))
    return 0


def cmd_examples(args) -> int:
    if args.name:
        if args.name not in CATALOG:
            raise EngineError(
                f"unknown example {args.name!r}; choose from {', '.join(CATALOG)}"
            )
        print(CATALOG[args.name], end="")
        return 0
    if args.dir:
        paths = {name: os.path.join(args.dir, f"{name}.model") for name in CATALOG}
        try:
            os.makedirs(args.dir, exist_ok=True)
            for name, path in paths.items():
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(CATALOG[name])
        except OSError as err:
            raise EngineError(f"cannot write the examples: {err}") from None
        print("\n".join(paths.values()))
        return 0
    for name, text in CATALOG.items():
        print(f"# --- {name} ---")
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ignorability-lab",
        description="exact ignorable-vs-informative classification of "
        "selection and missingness processes on finite models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify the nuisance process")
    p.add_argument("model")
    p.add_argument(
        "--inference",
        choices=(LIKELIHOOD_BASED, FREQUENTIST, BAYESIAN),
        default=LIKELIHOOD_BASED,
    )
    p.add_argument("--policy", choices=tuple(POLICIES), default="dirac")
    p.add_argument("--x", help="observation literal (JSON)")
    p.add_argument("--mar-variant", choices=("local", "uniform"), default="local")
    p.add_argument("--expect", choices=("ignorable", "informative"))
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("enumerate", help="dump joint and observation laws")
    p.add_argument("model")
    p.add_argument("--theta")
    p.add_argument("--phi")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("inclusion", help="inclusion probabilities and size identities")
    p.add_argument("model")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("audit-rubin", help="evaluate the missing-data theorems")
    p.add_argument("model")
    p.add_argument("--x", help="observation literal (JSON)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("mc-verify", help="simulation cross-check")
    p.add_argument("model")
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta")
    p.add_argument("--phi")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("examples", help="emit the built-in example catalog")
    p.add_argument("--name")
    p.add_argument("--dir")

    return parser


_parser = None  # built by the first main() call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up per call, so that a replaced cmd_* function is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: end as a process killed by SIGPIPE would
        return 141
    except EngineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # here only: it loads linecache and tokenize
        traceback.print_exc()
        return 3


def console() -> None:
    """Process entry: exit with the code of `main`.  When the reader
    closed stdout, stdout's descriptor is pointed at devnull first, so
    that the flush at interpreter exit finds no broken pipe either."""
    code = main()
    if code == 141:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    console()
