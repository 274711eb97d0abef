"""Model document format: a small line-oriented configuration language.

A document is sections of `key = value` lines:

    [population]
    units = 1 2

    [grids]
    theta = 1/3 2/3

    [signal]
    alphabet = 0 1
    iid 1/3 = 0:2/3 1:1/3
    iid 2/3 = 0:1/3 1:2/3

    [design]
    variant = srs_wor
    n = 1

    [observation]
    scheme = values_only

Some keys take one argument token (`iid <theta>`, `joint <theta>`,
`weights <phi>`, `component <i>`).  Rationals are written `p/q` or as
integers; decimal literals are rejected.  `#` starts a comment.  Every
diagnostic carries the line and column of the offending token and the
violated rule.

The format is deliberately hand-parsed rather than delegated to a generic
format library: schema violations, not just syntax errors, must point at
their source location.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .exactprob import EngineError, dist_new
from .designs import DesignSpec
from .ignorance import (
    MarginalFunctional,
    ParameterFunction,
    Predictand,
    RandomVariableRef,
    composite_rv,
    design_variable_rv,
    selection_rv,
    signal_rv,
    values_on_sample_rv,
)
from .sampling import (
    ObservationScheme,
    Population,
    SCHEME_KINDS,
    SurveyModel,
    signal_dist_from_table,
)


class ModelFileError(EngineError):
    """Base diagnostic: carries source location and the violated rule."""

    def __init__(self, message: str, line: int, col: int, rule: str):
        super().__init__(f"line {line}, col {col}: {message} [{rule}]")
        self.line = line
        self.col = col
        self.rule = rule


class ModelSyntaxError(ModelFileError):
    pass


class SchemaError(ModelFileError):
    pass


class UnknownDesignVariant(ModelFileError):
    pass


class BadRational(ModelFileError):
    pass


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    col: int


_DECIMAL = re.compile(r"^-?\d+\.\d+$")
_INTEGER = re.compile(r"^-?\d+$")
_RATIONAL = re.compile(r"^-?\d+/\d+$")


def _tokenize(text: str):
    """Yield (line_number, [tokens]) with comments stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [
            Token(mat.group(0), lineno, mat.start() + 1)
            for mat in re.finditer(r"\S+", line)
        ]
        if tokens:
            yield lineno, tokens


def _fraction(tok: Token) -> Fraction:
    """An integer or p/q token as a Fraction; a zero denominator is a
    located diagnostic."""
    try:
        return Fraction(tok.text)
    except ZeroDivisionError:
        raise BadRational(
            f"zero denominator in {tok.text!r}", tok.line, tok.col, "exact-rational"
        ) from None


def _parse_rational(tok: Token) -> Fraction:
    if _DECIMAL.match(tok.text):
        frac = Fraction(tok.text).limit_denominator(10**6)
        raise BadRational(
            f"decimal literal {tok.text!r}; use {frac.numerator}/{frac.denominator}",
            tok.line,
            tok.col,
            "exact-rational",
        )
    if _RATIONAL.match(tok.text) or _INTEGER.match(tok.text):
        return _fraction(tok)
    raise BadRational(
        f"not a rational: {tok.text!r}", tok.line, tok.col, "exact-rational"
    )


def _parse_label(tok: Token):
    """Grid/unit/alphabet labels: integers stay integers, p/q becomes an
    exact rational, decimals are rejected, anything else is a word."""
    if _DECIMAL.match(tok.text):
        frac = Fraction(tok.text).limit_denominator(10**6)
        raise BadRational(
            f"decimal literal {tok.text!r}; use {frac.numerator}/{frac.denominator}",
            tok.line,
            tok.col,
            "exact-rational",
        )
    if _INTEGER.match(tok.text):
        return int(tok.text)
    if _RATIONAL.match(tok.text):
        return _fraction(tok)
    return tok.text


SPLIT_VOCABULARY = ("signal", "design_variable", "selection", "values_on_sample")
TARGET_KINDS = ("unit_expectation", "signal_law", "grid_label", "population_mean")
DESIGN_VARIANTS = ("srs_wor", "srs_wr", "stratified", "poisson", "select_max", "mixture")


@dataclass(frozen=True)
class ModelDocument:
    """Parsed, normalized model description."""

    units: tuple
    thetas: tuple
    phis: tuple
    gamma: tuple | None
    alphabet: tuple
    signal: tuple  # ((theta, kind, table), ...); iid table: ((value, w), ...)
    variant: str
    n: int | None = None
    strata: tuple | None = None
    alloc: tuple | None = None
    p: tuple | None = None
    components: tuple | None = None
    weights: tuple | None = None  # ((label-or-None, (w, ...)), ...)
    scheme_kind: str = "values_only"
    unordered: bool = False
    split_v: tuple = ("signal",)
    split_v_bar: tuple = ("selection",)
    target_kind: str = "signal_law"
    target_unit: object = None

    def build(self):
        """Materialize the document into engine objects."""
        population = Population(self.units)
        weights = None
        if self.variant == "mixture":
            labels = self.phis if self.phis else self.thetas
            table = dict(self.weights)
            weights = tuple((lab, table[lab]) for lab in labels)
        spec = DesignSpec(
            variant=self.variant,
            n=self.n,
            strata=self.strata,
            alloc=self.alloc,
            p=self.p,
            components=self.components,
            weights=weights,
        )
        design, design_law, z_of, z_contains_y = spec.build(population)
        signal_law = {}
        for theta, kind, table in self.signal:
            if kind == "iid":
                unit = dist_new(list(table))
                from .sampling import iid_signal_dist

                signal_law[theta] = iid_signal_dist(population, unit, z_of=z_of)
            else:
                signal_law[theta] = signal_dist_from_table(list(table), z_of=z_of)
        phis = self.phis
        if self.variant == "mixture" and not phis:
            phis = self.thetas
            design_law = {t: design_law[t] for t in phis}
        model = SurveyModel.create(
            population=population,
            thetas=self.thetas,
            signal_law=signal_law,
            design=design,
            phis=phis,
            design_law=design_law,
            grid=self.gamma,
            z_contains_y=z_contains_y,
        )
        scheme = ObservationScheme(self.scheme_kind, unordered=self.unordered)
        v = _build_selector(self.split_v, population)
        v_bar = _build_selector(self.split_v_bar, population)
        target = _build_target(self, population)
        return BuildResult(model=model, scheme=scheme, v=v, v_bar=v_bar, target=target)


@dataclass(frozen=True)
class BuildResult:
    model: SurveyModel
    scheme: ObservationScheme
    v: RandomVariableRef
    v_bar: RandomVariableRef
    target: object


def _build_selector(names, population) -> RandomVariableRef:
    refs = []
    for name in names:
        if name == "signal":
            refs.append(signal_rv())
        elif name == "design_variable":
            refs.append(design_variable_rv())
        elif name == "selection":
            refs.append(selection_rv())
        elif name == "values_on_sample":
            refs.append(values_on_sample_rv(population))
    return composite_rv(refs)


def _build_target(doc: ModelDocument, population: Population):
    from .exactprob import expectation

    if doc.target_kind == "signal_law":
        return MarginalFunctional("signal_law", signal_rv(), lambda d: d)
    if doc.target_kind == "unit_expectation":
        unit = doc.target_unit if doc.target_unit is not None else population.labels[0]
        idx = population.index(unit)
        return MarginalFunctional(
            f"expectation_of_unit_{unit}",
            signal_rv(),
            lambda d: expectation(d, lambda y: y[idx]),
        )
    if doc.target_kind == "grid_label":
        return ParameterFunction("grid_label", lambda p: p)
    if doc.target_kind == "population_mean":
        n = population.size
        return Predictand(
            "population_mean", lambda w: Fraction(sum(Fraction(v) for v in w.y), n)
        )
    raise EngineError(f"unknown target kind {doc.target_kind!r}")


_SECTIONS = (
    "population",
    "grids",
    "signal",
    "design",
    "observation",
    "split",
    "target",
)


def parse_model(text: str) -> ModelDocument:
    """Parse a model document, raising located diagnostics."""
    sections: dict = {}
    current = None
    for lineno, tokens in _tokenize(text):
        head = tokens[0]
        if head.text.startswith("["):
            name = " ".join(t.text for t in tokens)
            if not name.endswith("]"):
                raise ModelSyntaxError(
                    f"unterminated section header {name!r}",
                    head.line,
                    head.col,
                    "section-header",
                )
            name = name[1:-1]
            if name not in _SECTIONS:
                raise SchemaError(
                    f"unknown section [{name}]", head.line, head.col, "known-section"
                )
            if name in sections:
                raise SchemaError(
                    f"duplicate section [{name}]", head.line, head.col, "unique-section"
                )
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ModelSyntaxError(
                f"content before any section: {head.text!r}",
                head.line,
                head.col,
                "section-required",
            )
        try:
            eq = next(i for i, t in enumerate(tokens) if t.text == "=")
        except StopIteration:
            raise ModelSyntaxError(
                "expected 'key = value'", head.line, head.col, "key-value"
            ) from None
        if eq == 0 or eq > 2:
            raise ModelSyntaxError(
                "expected 'key [argument] = value'",
                head.line,
                head.col,
                "key-value",
            )
        key = tokens[0]
        arg = tokens[1] if eq == 2 else None
        values = tokens[eq + 1 :]
        sections[current].append((key, arg, values))

    def require_section(name: str):
        if name not in sections:
            raise SchemaError(
                f"missing required section [{name}]", 1, 1, "required-section"
            )
        return sections[name]

    def entries(name: str):
        return sections.get(name, [])

    def single(name: str, key: str, required=True):
        found = [e for e in entries(name) if e[0].text == key and e[1] is None]
        if len(found) > 1:
            tok = found[1][0]
            raise SchemaError(
                f"duplicate key {key!r} in [{name}]", tok.line, tok.col, "unique-key"
            )
        if not found:
            if required:
                raise SchemaError(
                    f"missing key {key!r} in [{name}]", 1, 1, "required-key"
                )
            return None
        return found[0]

    def first_value(entry):
        key, _arg, values = entry
        if not values:
            raise SchemaError(
                f"missing value for key {key.text!r}", key.line, key.col, "key-value"
            )
        return values[0]

    def check_known_keys(name: str, known, with_arg=()):
        for key, arg, _values in entries(name):
            if arg is None and key.text not in known:
                raise SchemaError(
                    f"unknown key {key.text!r} in [{name}]",
                    key.line,
                    key.col,
                    "known-key",
                )
            if arg is not None and key.text not in with_arg:
                raise SchemaError(
                    f"key {key.text!r} does not take an argument in [{name}]",
                    key.line,
                    key.col,
                    "known-key",
                )

    # population
    require_section("population")
    check_known_keys("population", ("units",))
    _key, _arg, unit_tokens = single("population", "units")
    units = []
    seen = set()
    for tok in unit_tokens:
        label = _parse_label(tok)
        if label in seen:
            raise SchemaError(
                f"duplicate unit label {label!r}", tok.line, tok.col, "distinct-units"
            )
        seen.add(label)
        units.append(label)
    if not units:
        raise SchemaError("population has no units", _key.line, _key.col, "nonempty")

    # grids
    require_section("grids")
    check_known_keys("grids", ("theta", "phi", "gamma"))
    _k, _a, theta_tokens = single("grids", "theta")
    thetas = tuple(_parse_label(t) for t in theta_tokens)
    if len(set(thetas)) != len(thetas):
        raise SchemaError("duplicate theta label", _k.line, _k.col, "distinct-grid")
    phi_entry = single("grids", "phi", required=False)
    phis = ()
    if phi_entry:
        phis = tuple(_parse_label(t) for t in phi_entry[2])
    gamma = None
    gamma_entry = single("grids", "gamma", required=False)
    if gamma_entry:
        gamma = []
        for tok in gamma_entry[2]:
            if ":" not in tok.text:
                raise SchemaError(
                    "gamma entries are theta:phi pairs", tok.line, tok.col, "gamma-pair"
                )
            left, right = tok.text.split(":", 1)
            tpair = (
                _parse_label(Token(left, tok.line, tok.col)),
                _parse_label(Token(right, tok.line, tok.col + len(left) + 1)),
            )
            if tpair[0] not in thetas:
                raise SchemaError(
                    f"gamma theta {left!r} not in the theta grid",
                    tok.line,
                    tok.col,
                    "gamma-in-grid",
                )
            if phis and tpair[1] not in phis:
                raise SchemaError(
                    f"gamma phi {right!r} not in the phi grid",
                    tok.line,
                    tok.col,
                    "gamma-in-grid",
                )
            gamma.append(tpair)
        gamma = tuple(gamma)

    # signal
    require_section("signal")
    check_known_keys("signal", ("alphabet",), with_arg=("iid", "joint"))
    _k, _a, alpha_tokens = single("signal", "alphabet")
    alphabet = tuple(_parse_label(t) for t in alpha_tokens)
    if len(set(alphabet)) != len(alphabet):
        raise SchemaError("duplicate alphabet value", _k.line, _k.col, "distinct-values")
    signal = []
    covered = set()
    for key, arg, values in entries("signal"):
        if key.text not in ("iid", "joint"):
            continue
        if arg is None:
            raise SchemaError(
                f"{key.text!r} needs a theta argument", key.line, key.col, "law-theta"
            )
        theta = _parse_label(arg)
        if theta not in thetas:
            raise SchemaError(
                f"signal law for unknown theta {arg.text!r}",
                arg.line,
                arg.col,
                "law-theta",
            )
        if theta in covered:
            raise SchemaError(
                f"second signal law for theta {arg.text!r}",
                arg.line,
                arg.col,
                "one-law-per-theta",
            )
        covered.add(theta)
        table = []
        for tok in values:
            if ":" not in tok.text:
                raise SchemaError(
                    "expected value:mass pairs", tok.line, tok.col, "mass-pair"
                )
            left, right = tok.text.rsplit(":", 1)
            mass = _parse_rational(Token(right, tok.line, tok.col + len(left) + 1))
            if mass < 0:
                raise SchemaError(
                    f"negative mass {right}", tok.line, tok.col, "nonnegative-mass"
                )
            if key.text == "iid":
                value = _parse_label(Token(left, tok.line, tok.col))
                if value not in alphabet:
                    raise SchemaError(
                        f"value {left!r} not in the alphabet",
                        tok.line,
                        tok.col,
                        "value-in-alphabet",
                    )
                table.append((value, mass))
            else:
                parts = left.split(",")
                if len(parts) != len(units):
                    raise SchemaError(
                        f"signal {left!r} does not cover the population",
                        tok.line,
                        tok.col,
                        "signal-covers-population",
                    )
                y = tuple(_parse_label(Token(p, tok.line, tok.col)) for p in parts)
                for v in y:
                    if v not in alphabet:
                        raise SchemaError(
                            f"value {v!r} not in the alphabet",
                            tok.line,
                            tok.col,
                            "value-in-alphabet",
                        )
                table.append((y, mass))
        total = sum((m for _v, m in table), Fraction(0))
        if total != 1:
            raise SchemaError(
                f"signal masses for theta {arg.text!r} sum to {total}, expected 1",
                arg.line,
                arg.col,
                "unit-mass",
            )
        signal.append((theta, key.text, tuple(table)))
    for theta in thetas:
        if theta not in covered:
            raise SchemaError(
                f"theta {theta!r} has no signal law", 1, 1, "one-law-per-theta"
            )
    signal.sort(key=lambda row: thetas.index(row[0]))

    # design
    require_section("design")
    check_known_keys(
        "design",
        ("variant", "n", "strata", "alloc", "p", "weights"),
        with_arg=("component", "weights"),
    )
    variant_entry = single("design", "variant")
    variant_tok = variant_entry[2][0] if variant_entry[2] else variant_entry[0]
    variant = variant_tok.text
    if variant not in DESIGN_VARIANTS:
        raise UnknownDesignVariant(
            f"unknown design variant {variant!r}",
            variant_tok.line,
            variant_tok.col,
            "known-variant",
        )
    n = None
    n_entry = single("design", "n", required=False)
    if n_entry:
        tok = first_value(n_entry)
        value = _parse_rational(tok)
        if value.denominator != 1 or value < 0:
            raise SchemaError(
                f"sample size must be a nonnegative integer, got {tok.text!r}",
                tok.line,
                tok.col,
                "integer-size",
            )
        n = int(value)
    if variant in ("srs_wor", "srs_wr") and n is None:
        raise SchemaError(
            f"variant {variant!r} needs a sample size n",
            variant_tok.line,
            variant_tok.col,
            "variant-params",
        )
    strata = None
    strata_entry = single("design", "strata", required=False)
    if strata_entry:
        strata = tuple(_parse_label(t) for t in strata_entry[2])
        if len(strata) != len(units):
            tok = strata_entry[0]
            raise SchemaError(
                "one stratum id per unit required", tok.line, tok.col, "strata-cover"
            )
    alloc = None
    alloc_entry = single("design", "alloc", required=False)
    if alloc_entry:
        alloc = []
        for tok in alloc_entry[2]:
            if ":" not in tok.text:
                raise SchemaError(
                    "alloc entries are stratum:count pairs",
                    tok.line,
                    tok.col,
                    "alloc-pair",
                )
            left, right = tok.text.split(":", 1)
            count = _parse_rational(Token(right, tok.line, tok.col + len(left) + 1))
            if count.denominator != 1 or count < 0:
                raise SchemaError(
                    "allocation counts must be nonnegative integers",
                    tok.line,
                    tok.col,
                    "integer-size",
                )
            alloc.append((_parse_label(Token(left, tok.line, tok.col)), int(count)))
        alloc = tuple(alloc)
    if variant == "stratified" and (strata is None or alloc is None):
        raise SchemaError(
            "stratified design needs strata and alloc",
            variant_tok.line,
            variant_tok.col,
            "variant-params",
        )
    p = None
    p_entry = single("design", "p", required=False)
    if p_entry:
        p = tuple(_parse_rational(t) for t in p_entry[2])
        if len(p) != len(units):
            tok = p_entry[0]
            raise SchemaError(
                "one inclusion probability per unit required",
                tok.line,
                tok.col,
                "p-cover",
            )
    if variant == "poisson" and p is None:
        raise SchemaError(
            "poisson design needs per-unit probabilities p",
            variant_tok.line,
            variant_tok.col,
            "variant-params",
        )
    components = []
    for key, arg, values in entries("design"):
        if key.text != "component":
            continue
        if variant != "mixture":
            raise SchemaError(
                "components only belong to mixture designs",
                key.line,
                key.col,
                "variant-params",
            )
        mapping = tuple(
            _parse_label(t) for t in values if t.text != "-"
        )
        for label in mapping:
            if label not in units:
                tok = values[0]
                raise SchemaError(
                    f"component unit {label!r} not in the population",
                    tok.line,
                    tok.col,
                    "unit-exists",
                )
        index = _parse_label(arg) if arg else len(components)
        if isinstance(index, str):
            raise SchemaError(
                f"component index {arg.text!r} is not a number",
                arg.line,
                arg.col,
                "component-index",
            )
        components.append((index, mapping))
    components.sort(key=lambda kv: kv[0])
    component_maps = tuple(mapping for _i, mapping in components) or None
    weights = []
    for key, arg, values in entries("design"):
        if key.text != "weights":
            continue
        if variant != "mixture":
            raise SchemaError(
                "weights only belong to mixture designs",
                key.line,
                key.col,
                "variant-params",
            )
        label = _parse_label(arg) if arg is not None else None
        ws = tuple(_parse_rational(t) for t in values)
        if component_maps is None or len(ws) != len(component_maps):
            raise SchemaError(
                "one weight per component required", key.line, key.col, "weights-cover"
            )
        if sum(ws, Fraction(0)) != 1:
            raise SchemaError(
                "mixture weights must sum to 1", key.line, key.col, "unit-mass"
            )
        weights.append((label, ws))
    if variant == "mixture":
        if not weights:
            raise SchemaError(
                "mixture design needs weights",
                variant_tok.line,
                variant_tok.col,
                "variant-params",
            )
        labels_needed = phis if phis else thetas
        given = [lab for lab, _ in weights]
        if given == [None]:
            weights = [(lab, weights[0][1]) for lab in labels_needed]
        else:
            for lab in labels_needed:
                if lab not in given:
                    raise SchemaError(
                        f"no mixture weights for grid label {lab!r}",
                        variant_tok.line,
                        variant_tok.col,
                        "weights-cover",
                    )
    weights = tuple(weights) or None

    # observation
    require_section("observation")
    check_known_keys("observation", ("scheme", "unordered"))
    scheme_entry = single("observation", "scheme")
    scheme_tok = scheme_entry[2][0] if scheme_entry[2] else scheme_entry[0]
    if scheme_tok.text not in SCHEME_KINDS:
        raise SchemaError(
            f"unknown observation scheme {scheme_tok.text!r}",
            scheme_tok.line,
            scheme_tok.col,
            "known-scheme",
        )
    unordered = False
    unordered_entry = single("observation", "unordered", required=False)
    if unordered_entry:
        tok = first_value(unordered_entry)
        if tok.text not in ("true", "false"):
            raise SchemaError(
                "unordered must be true or false", tok.line, tok.col, "boolean"
            )
        unordered = tok.text == "true"

    # split
    split_v = ("signal",)
    split_v_bar = ("selection",)
    if "split" in sections:
        check_known_keys("split", ("v", "v_bar"))
        v_entry = single("split", "v", required=False)
        if v_entry:
            split_v = tuple(_check_selectors(v_entry[2]))
        vb_entry = single("split", "v_bar", required=False)
        if vb_entry:
            split_v_bar = tuple(_check_selectors(vb_entry[2]))

    # target
    target_kind = "signal_law"
    target_unit = None
    if "target" in sections:
        check_known_keys("target", ("kind", "unit"))
        kind_entry = single("target", "kind", required=False)
        if kind_entry:
            tok = first_value(kind_entry)
            if tok.text not in TARGET_KINDS:
                raise SchemaError(
                    f"unknown target kind {tok.text!r}",
                    tok.line,
                    tok.col,
                    "known-target",
                )
            target_kind = tok.text
        unit_entry = single("target", "unit", required=False)
        if unit_entry:
            tok = first_value(unit_entry)
            target_unit = _parse_label(tok)
            if target_unit not in units:
                raise SchemaError(
                    f"target unit {target_unit!r} not in the population",
                    tok.line,
                    tok.col,
                    "unit-exists",
                )

    return ModelDocument(
        units=tuple(units),
        thetas=thetas,
        phis=phis,
        gamma=gamma,
        alphabet=alphabet,
        signal=tuple(signal),
        variant=variant,
        n=n,
        strata=strata,
        alloc=alloc,
        p=p,
        components=component_maps,
        weights=weights,
        scheme_kind=scheme_tok.text,
        unordered=unordered,
        split_v=split_v,
        split_v_bar=split_v_bar,
        target_kind=target_kind,
        target_unit=target_unit,
    )


def _check_selectors(tokens):
    out = []
    for tok in tokens:
        if tok.text not in SPLIT_VOCABULARY:
            raise SchemaError(
                f"unknown split selector {tok.text!r}; choose from "
                f"{', '.join(SPLIT_VOCABULARY)}",
                tok.line,
                tok.col,
                "known-selector",
            )
        out.append(tok.text)
    return out


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    return str(value)


def emit_model(doc: ModelDocument) -> str:
    """Canonical text for a document; parse(emit(doc)) == doc."""
    lines = []
    lines.append("[population]")
    lines.append("units = " + " ".join(_fmt(u) for u in doc.units))
    lines.append("")
    lines.append("[grids]")
    lines.append("theta = " + " ".join(_fmt(t) for t in doc.thetas))
    if doc.phis:
        lines.append("phi = " + " ".join(_fmt(p) for p in doc.phis))
    if doc.gamma is not None:
        lines.append(
            "gamma = " + " ".join(f"{_fmt(t)}:{_fmt(p)}" for t, p in doc.gamma)
        )
    lines.append("")
    lines.append("[signal]")
    lines.append("alphabet = " + " ".join(_fmt(v) for v in doc.alphabet))
    for theta, kind, table in doc.signal:
        if kind == "iid":
            body = " ".join(f"{_fmt(v)}:{_fmt(m)}" for v, m in table)
        else:
            body = " ".join(
                f"{','.join(_fmt(v) for v in y)}:{_fmt(m)}" for y, m in table
            )
        lines.append(f"{kind} {_fmt(theta)} = {body}")
    lines.append("")
    lines.append("[design]")
    lines.append(f"variant = {doc.variant}")
    if doc.n is not None:
        lines.append(f"n = {doc.n}")
    if doc.strata is not None:
        lines.append("strata = " + " ".join(_fmt(s) for s in doc.strata))
    if doc.alloc is not None:
        lines.append("alloc = " + " ".join(f"{_fmt(h)}:{c}" for h, c in doc.alloc))
    if doc.p is not None:
        lines.append("p = " + " ".join(_fmt(q) for q in doc.p))
    if doc.components is not None:
        for i, mapping in enumerate(doc.components):
            body = " ".join(_fmt(k) for k in mapping) if mapping else "-"
            lines.append(f"component {i} = {body}")
    if doc.weights is not None:
        for label, ws in doc.weights:
            body = " ".join(_fmt(w) for w in ws)
            if label is None:
                lines.append(f"weights = {body}")
            else:
                lines.append(f"weights {_fmt(label)} = {body}")
    lines.append("")
    lines.append("[observation]")
    lines.append(f"scheme = {doc.scheme_kind}")
    if doc.unordered:
        lines.append("unordered = true")
    lines.append("")
    lines.append("[split]")
    lines.append("v = " + " ".join(doc.split_v))
    lines.append("v_bar = " + " ".join(doc.split_v_bar))
    lines.append("")
    lines.append("[target]")
    lines.append(f"kind = {doc.target_kind}")
    if doc.target_unit is not None:
        lines.append(f"unit = {_fmt(doc.target_unit)}")
    return "\n".join(lines) + "\n"
