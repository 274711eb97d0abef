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
from fractions import Fraction

from .exactprob import EngineError, Record, dist_new, expectation
from .designs import constant, fixed_design, mixture_design, poisson, select_max, srs_wor, srs_wr, stratified
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
    VALUES_ONLY,
    SurveyModel,
    iid_signal_dist,
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


class Token(Record):
    text: str
    line: int
    col: int

    def __init__(self, text, line, col):
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "col", col)


_START = Token("", 1, 1)  # where a missing section or key is reported
_NUMBER = re.compile(r"-?\d+(?:([./])\d+)?")


def _error(tok: Token, rule: str, message: str, kind=SchemaError) -> ModelFileError:
    """The diagnostic located at a token."""
    return kind(message, tok.line, tok.col, rule)


def _show(value) -> str:
    """A parsed label as a diagnostic writes it: a rational as `p/q`, the
    way documents write it, anything else as its repr."""
    return _fmt(value) if isinstance(value, Fraction) else repr(value)


def _tokenize(text: str):
    """Yield the token list of each line that has any, comments stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [
            Token(mat.group(0), lineno, mat.start() + 1)
            for mat in re.finditer(r"\S+", line)
        ]
        if tokens:
            yield tokens


def label_value(text: str):
    """Grid/unit/alphabet labels: integers stay integers, p/q becomes an
    exact rational, anything else is a word.  A decimal or a zero
    denominator raises ValueError."""
    number = _NUMBER.fullmatch(text)
    if number is None:
        return text
    if number[1] == ".":
        frac = Fraction(text).limit_denominator(10**6)
        raise ValueError(f"decimal literal {text!r}; use {frac.numerator}/{frac.denominator}")
    if number[1] is None:
        return int(text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_label(tok: Token):
    """`label_value` of a token, its refusal located there."""
    try:
        return label_value(tok.text)
    except ValueError as err:
        raise _error(tok, "exact-rational", str(err), BadRational) from None


def _parse_rational(tok: Token) -> Fraction:
    value = _parse_label(tok)
    if isinstance(value, str):
        raise _error(tok, "exact-rational", f"not a rational: {tok.text!r}", BadRational)
    return Fraction(value)


def _size(tok: Token, at: Token, message: str) -> int:
    """A nonnegative integer token; a violation is reported at `at`."""
    value = _parse_rational(tok)
    if value.denominator != 1 or value < 0:
        raise _error(at, "integer-size", message)
    return int(value)


def _pair(tok: Token, rule: str, message: str, last=False):
    """The two halves of a `left:right` token, split at its first colon (or
    its last), each located in the source."""
    left, colon, right = tok.text.rpartition(":") if last else tok.text.partition(":")
    if not colon:
        raise _error(tok, rule, message)
    return Token(left, tok.line, tok.col), Token(right, tok.line, tok.col + len(left) + 1)


def _choose(tok: Token, choices, noun: str, rule: str, kind=SchemaError, hint=""):
    """The token's text, which must name one of the choices."""
    if tok.text not in choices:
        raise _error(tok, rule, f"unknown {noun} {tok.text!r}{hint}", kind)
    return tok.text


# split selector -> the random variable it names, given the population
_SELECTORS = {
    "signal": lambda population: signal_rv(),
    "design_variable": lambda population: design_variable_rv(),
    "selection": lambda population: selection_rv(),
    "values_on_sample": values_on_sample_rv,
}
SPLIT_VOCABULARY = tuple(_SELECTORS)
TARGET_KINDS = ("unit_expectation", "signal_law", "grid_label", "population_mean")
DESIGN_VARIANTS = ("srs_wor", "srs_wr", "stratified", "poisson", "select_max", "mixture")

# section -> key -> (argument: "no", "needs" or "may"; values: "one", "some" or "any")
_KEYS = {
    "population": {"units": ("no", "any")},
    "grids": {"theta": ("no", "some"), "phi": ("no", "any"), "gamma": ("no", "some")},
    "signal": {"alphabet": ("no", "some"), "iid": ("needs", "any"), "joint": ("needs", "any")},
    "design": {
        "variant": ("no", "one"),
        "n": ("no", "one"),
        "strata": ("no", "any"),
        "alloc": ("no", "any"),
        "p": ("no", "any"),
        "component": ("needs", "any"),
        "weights": ("may", "any"),
    },
    "observation": {"scheme": ("no", "one"), "unordered": ("no", "one")},
    "split": {"v": ("no", "some"), "v_bar": ("no", "some")},
    "target": {"kind": ("no", "one"), "unit": ("no", "one")},
}
# required section -> its required key
_REQUIRED = {
    "population": "units",
    "grids": "theta",
    "signal": "alphabet",
    "design": "variant",
    "observation": "scheme",
}


class _Section:
    """The (key, argument, values) entries of one section, checked against
    its row of `_KEYS` as they are read."""

    def __init__(self, sections: dict, name: str):
        if name in _REQUIRED and name not in sections:
            raise _error(_START, "required-section", f"missing required section [{name}]")
        self.name = name
        self.entries = sections.get(name, [])
        for key, arg, values in self.entries:
            argument, arity = _KEYS[name].get(key.text, ("unknown", None))
            if arg is None and argument not in ("no", "may"):
                raise _error(key, "known-key", f"unknown key {key.text!r} in [{name}]")
            if arg is not None and argument not in ("needs", "may"):
                raise _error(key, "known-key", f"key {key.text!r} does not take an argument in [{name}]")
            equals = next((v for v in values if v.text == "="), None)
            if equals is not None and arity != "one":
                raise _error(equals, "key-value", f"unexpected '=' among the values of key {key.text!r}")

    def get(self, key: str):
        """The entry of a key written without argument, or None."""
        found = [e for e in self.entries if e[0].text == key and e[1] is None]
        if len(found) > 1:
            raise _error(found[1][0], "unique-key", f"duplicate key {key!r} in [{self.name}]")
        if not found:
            if _REQUIRED.get(self.name) == key:
                raise _error(_START, "required-key", f"missing key {key!r} in [{self.name}]")
            return None
        tok, _arg, values = found[0]
        arity = _KEYS[self.name][key][1]
        if not values and arity != "any":
            raise _error(tok, "key-value", f"missing value for key {key!r}")
        if arity == "one" and len(values) > 1:
            raise _error(values[1], "one-value", f"key {key!r} takes one value")
        return found[0]

    def value(self, key: str):
        """The value token of a one-value key, or None."""
        entry = self.get(key)
        return entry[2][0] if entry else None

    def each(self, *keys):
        """The entries of these keys, in document order."""
        return [e for e in self.entries if e[0].text in keys]


class ModelDocument(Record):
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
    weights: tuple | None = None  # ((label, (w, ...)), ...), one per grid label: an unlabelled line goes to each
    scheme_kind: str = "values_only"
    unordered: bool = False
    split_v: tuple = ("signal",)
    split_v_bar: tuple = ("selection",)
    target_kind: str = "signal_law"
    target_unit: object = None

    def build(self):
        """Materialize the document into engine objects."""
        population = Population(self.units)
        design, design_law, phis, z_of = None, None, self.phis, None
        if self.variant == "srs_wor":
            design = constant(srs_wor(self.n, population))
        elif self.variant == "srs_wr":
            design = constant(srs_wr(self.n, population))
        elif self.variant == "poisson":
            design = constant(poisson(self.p, population))
        elif self.variant == "stratified":
            strata = tuple(self.strata)
            design = stratified(strata, dict(self.alloc), population)
            z_of = lambda y: strata
        elif self.variant == "select_max":
            design = select_max(population)
            z_of = lambda y: y
        elif self.variant == "mixture":
            phis = self.phis or self.thetas
            table = dict(self.weights)
            components = [fixed_design(c) for c in self.components]
            design_law = mixture_design({label: table[label] for label in phis}, components)
        else:
            raise EngineError(f"unknown design variant {self.variant!r}")
        signal_law = {}
        for theta, kind, table in self.signal:
            if kind == "iid":
                unit = dist_new(list(table))
                signal_law[theta] = iid_signal_dist(population, unit, z_of=z_of)
            else:
                signal_law[theta] = signal_dist_from_table(list(table), z_of=z_of)
        model = SurveyModel.create(
            population=population,
            thetas=self.thetas,
            signal_law=signal_law,
            design=design,
            phis=phis,
            design_law=design_law,
            grid=self.gamma,
            z_contains_y=self.variant == "select_max",
        )
        scheme = ObservationScheme(self.scheme_kind, unordered=self.unordered)
        v = _build_selector(self.split_v, population)
        v_bar = _build_selector(self.split_v_bar, population)
        target = _build_target(self, population)
        return BuildResult(model=model, scheme=scheme, v=v, v_bar=v_bar, target=target)


class BuildResult(Record):
    model: SurveyModel
    scheme: ObservationScheme
    v: RandomVariableRef
    v_bar: RandomVariableRef
    target: object


def _build_selector(names, population) -> RandomVariableRef:
    return composite_rv([_SELECTORS[name](population) for name in names])


def _build_target(doc: ModelDocument, population: Population):
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


def parse_model(text: str) -> ModelDocument:
    """Parse a model document, raising located diagnostics."""
    sections: dict = {}
    current = None
    for tokens in _tokenize(text):
        head = tokens[0]
        if head.text.startswith("["):
            name = " ".join(t.text for t in tokens)
            if not name.endswith("]"):
                message = f"unterminated section header {name!r}"
                raise _error(head, "section-header", message, ModelSyntaxError)
            name = name[1:-1]
            if name not in _KEYS:
                raise _error(head, "known-section", f"unknown section [{name}]")
            if name in sections:
                raise _error(head, "unique-section", f"duplicate section [{name}]")
            current = sections[name] = []
            continue
        if current is None:
            message = f"content before any section: {head.text!r}"
            raise _error(head, "section-required", message, ModelSyntaxError)
        eq = next((i for i, t in enumerate(tokens) if t.text == "="), None)
        if eq is None:
            raise _error(head, "key-value", "expected 'key = value'", ModelSyntaxError)
        if eq == 0 or eq > 2:
            raise _error(head, "key-value", "expected 'key [argument] = value'", ModelSyntaxError)
        current.append((head, tokens[1] if eq == 2 else None, tokens[eq + 1 :]))

    population = _Section(sections, "population")
    key, _arg, unit_tokens = population.get("units")
    units = []
    for tok in unit_tokens:
        label = _parse_label(tok)
        if label in units:
            raise _error(tok, "distinct-units", f"duplicate unit label {_show(label)}")
        units.append(label)
    if not units:
        raise _error(key, "nonempty", "population has no units")

    grids = _Section(sections, "grids")
    key, _arg, theta_tokens = grids.get("theta")
    thetas = tuple(map(_parse_label, theta_tokens))
    if len(set(thetas)) != len(thetas):
        raise _error(key, "distinct-grid", "duplicate theta label")
    entry = grids.get("phi")
    phis = tuple(map(_parse_label, entry[2])) if entry else ()
    if len(set(phis)) != len(phis):
        raise _error(entry[0], "distinct-grid", "duplicate phi label")
    gamma, gamma_phis = None, []  # gamma_phis: (token, phi token, phi) of each pair
    entry = grids.get("gamma")
    if entry:
        gamma = []
        for tok in entry[2]:
            left, right = _pair(tok, "gamma-pair", "gamma entries are theta:phi pairs")
            pair = (_parse_label(left), _parse_label(right))
            if pair[0] not in thetas:
                raise _error(tok, "gamma-in-grid", f"gamma theta {left.text!r} not in the theta grid")
            if phis and pair[1] not in phis:
                raise _error(tok, "gamma-in-grid", f"gamma phi {right.text!r} not in the phi grid")
            if pair in gamma:
                raise _error(tok, "distinct-grid", f"duplicate gamma pair {tok.text!r}")
            gamma.append(pair)
            gamma_phis.append((tok, right, pair[1]))
        gamma = tuple(gamma)

    signal = _Section(sections, "signal")
    key, _arg, alpha_tokens = signal.get("alphabet")
    alphabet = tuple(map(_parse_label, alpha_tokens))
    if len(set(alphabet)) != len(alphabet):
        raise _error(key, "distinct-values", "duplicate alphabet value")
    laws = {}
    for key, arg, values in signal.each("iid", "joint"):
        theta = _parse_label(arg)
        if theta not in thetas:
            raise _error(arg, "law-theta", f"signal law for unknown theta {arg.text!r}")
        if theta in laws:
            raise _error(arg, "one-law-per-theta", f"second signal law for theta {arg.text!r}")
        table = []
        for tok in values:
            left, right = _pair(tok, "mass-pair", "expected value:mass pairs", last=True)
            mass = _parse_rational(right)
            if mass < 0:
                raise _error(tok, "nonnegative-mass", f"negative mass {right.text}")
            if key.text == "iid":
                value = _parse_label(left)
                if value not in alphabet:
                    raise _error(tok, "value-in-alphabet", f"value {left.text!r} not in the alphabet")
                table.append((value, mass))
                continue
            parts = left.text.split(",")
            if len(parts) != len(units):
                message = f"signal {left.text!r} does not cover the population"
                raise _error(tok, "signal-covers-population", message)
            y = tuple(_parse_label(Token(part, tok.line, tok.col)) for part in parts)
            for value in y:
                if value not in alphabet:
                    raise _error(tok, "value-in-alphabet", f"value {_show(value)} not in the alphabet")
            table.append((y, mass))
        total = sum((m for _v, m in table), Fraction(0))
        if total != 1:
            raise _error(arg, "unit-mass", f"signal masses for theta {arg.text!r} sum to {total}, expected 1")
        laws[theta] = (theta, key.text, tuple(table))
    for theta in thetas:
        if theta not in laws:
            raise _error(_START, "one-law-per-theta", f"theta {_show(theta)} has no signal law")

    design = _Section(sections, "design")
    variant_tok = design.value("variant")
    variant = _choose(variant_tok, DESIGN_VARIANTS, "design variant", "known-variant", UnknownDesignVariant)
    n = None
    tok = design.value("n")
    if tok is not None:
        n = _size(tok, tok, f"sample size must be a nonnegative integer, got {tok.text!r}")
    if variant in ("srs_wor", "srs_wr") and n is None:
        raise _error(variant_tok, "variant-params", f"variant {variant!r} needs a sample size n")
    if variant == "srs_wor" and n > len(units):
        raise _error(tok, "sample-fits-population", f"sample size {n} without replacement exceeds the population size {len(units)}")
    strata = None
    entry = design.get("strata")
    if entry:
        strata = tuple(map(_parse_label, entry[2]))
        if len(strata) != len(units):
            raise _error(entry[0], "strata-cover", "one stratum id per unit required")
    alloc = None
    entry = design.get("alloc")
    if entry:
        alloc = []
        for tok in entry[2]:
            left, right = _pair(tok, "alloc-pair", "alloc entries are stratum:count pairs")
            count = _size(right, tok, "allocation counts must be nonnegative integers")
            alloc.append((_parse_label(left), count))
        alloc = tuple(alloc)
    if variant == "stratified" and (strata is None or alloc is None):
        raise _error(variant_tok, "variant-params", "stratified design needs strata and alloc")
    if variant == "stratified":
        allocated = {h for h, _count in alloc}
        for h in strata:
            if h not in allocated:
                raise _error(entry[0], "alloc-cover", f"stratum {_show(h)} has no allocation")
    p = None
    entry = design.get("p")
    if entry:
        p = tuple(map(_parse_rational, entry[2]))
        if len(p) != len(units):
            raise _error(entry[0], "p-cover", "one inclusion probability per unit required")
        for tok, q in zip(entry[2], p):
            if variant == "poisson" and not 0 <= q <= 1:
                raise _error(tok, "probability-range", f"inclusion probability {tok.text} outside [0, 1]")
    if variant == "poisson" and p is None:
        raise _error(variant_tok, "variant-params", "poisson design needs per-unit probabilities p")
    components = []
    for key, arg, values in design.each("component"):
        if variant != "mixture":
            raise _error(key, "variant-params", "components only belong to mixture designs")
        mapping = tuple(_parse_label(t) for t in values if t.text != "-")
        for label in mapping:
            if label not in units:
                raise _error(values[0], "unit-exists", f"component unit {_show(label)} not in the population")
        index = _parse_label(arg)
        if isinstance(index, str):
            raise _error(arg, "component-index", f"component index {arg.text!r} is not a number")
        if index in (i for i, _mapping in components):
            raise _error(arg, "unique-component", f"duplicate component index {arg.text!r}")
        components.append((index, mapping))
    components.sort(key=lambda kv: kv[0])
    component_maps = tuple(mapping for _i, mapping in components) or None
    weights = []
    for key, arg, values in design.each("weights"):
        if variant != "mixture":
            raise _error(key, "variant-params", "weights only belong to mixture designs")
        label = _parse_label(arg) if arg is not None else None
        if label is not None and label not in (phis or thetas):
            raise _error(arg, "weights-in-grid", f"weights label {arg.text!r} not in the grid")
        if label in (lab for lab, _ws in weights):
            message = f"duplicate weights line for label {arg.text!r}" if arg else "duplicate unlabelled weights line"
            raise _error(arg or key, "unique-weights", message)
        if weights and (label is None) != (weights[0][0] is None):
            raise _error(key, "unlabelled-weights", "unlabelled weights line beside labelled ones")
        ws = tuple(map(_parse_rational, values))
        if component_maps is None or len(ws) != len(component_maps):
            raise _error(key, "weights-cover", "one weight per component required")
        if sum(ws, Fraction(0)) != 1:
            raise _error(key, "unit-mass", "mixture weights must sum to 1")
        weights.append((label, ws))
    if variant == "mixture":
        if not weights:
            raise _error(variant_tok, "variant-params", "mixture design needs weights")
        given = [lab for lab, _ in weights]
        if given == [None]:
            weights = [(lab, weights[0][1]) for lab in phis or thetas]
        else:
            for lab in phis or thetas:
                if lab not in given:
                    raise _error(variant_tok, "weights-cover", f"no mixture weights for grid label {_show(lab)}")

    # with no phi line a mixture's phi grid is its theta grid, and any other
    # design has the one-point grid, which a document cannot name
    for tok, right, phi in gamma_phis:
        if not phis and (variant != "mixture" or phi not in thetas):
            where = "the theta grid, a mixture's phi grid" if variant == "mixture" else "a phi grid; add a phi line"
            raise _error(tok, "gamma-in-grid", f"gamma phi {right.text!r} not in {where}")

    observation = _Section(sections, "observation")
    scheme = _choose(observation.value("scheme"), SCHEME_KINDS, "observation scheme", "known-scheme")
    tok = observation.value("unordered")
    if tok is not None and tok.text not in ("true", "false"):
        raise _error(tok, "boolean", "unordered must be true or false")
    unordered = tok is not None and tok.text == "true"
    if unordered and scheme != VALUES_ONLY:
        raise _error(tok, "unordered-scheme", f"unordered applies to the {VALUES_ONLY} scheme, not {scheme}")

    split = _Section(sections, "split")
    hint = f"; choose from {', '.join(SPLIT_VOCABULARY)}"
    selectors = {"v": ("signal",), "v_bar": ("selection",)}
    for key in selectors:
        entry = split.get(key)
        if entry:
            choices = (_choose(t, _SELECTORS, "split selector", "known-selector", hint=hint) for t in entry[2])
            selectors[key] = tuple(choices)

    target = _Section(sections, "target")
    kind_tok = target.value("kind")
    target_kind = "signal_law" if kind_tok is None else _choose(kind_tok, TARGET_KINDS, "target kind", "known-target")
    tok = target.value("unit")
    target_unit = None if tok is None else _parse_label(tok)
    if tok is not None and target_unit not in units:
        raise _error(tok, "unit-exists", f"target unit {_show(target_unit)} not in the population")
    word = next((v for v in alphabet if isinstance(v, str)), None)
    if target_kind in ("unit_expectation", "population_mean") and word is not None:
        message = f"target kind {target_kind!r} averages signal values; alphabet value {word!r} is not a number"
        raise _error(kind_tok, "numeric-alphabet", message)

    return ModelDocument(
        units=tuple(units),
        thetas=thetas,
        phis=phis,
        gamma=gamma,
        alphabet=alphabet,
        signal=tuple(laws[theta] for theta in thetas),
        variant=variant,
        n=n,
        strata=strata,
        alloc=alloc,
        p=p,
        components=component_maps,
        weights=tuple(weights) or None,
        scheme_kind=scheme,
        unordered=unordered,
        split_v=selectors["v"],
        split_v_bar=selectors["v_bar"],
        target_kind=target_kind,
        target_unit=target_unit,
    )


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
            lines.append(f"weights {_fmt(label)} = " + " ".join(_fmt(w) for w in ws))
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
