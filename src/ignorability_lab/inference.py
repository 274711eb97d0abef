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
from functools import cached_property
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterator

from .exactprob import (
    EngineError,
    Record,
    canonical_key,
    check_size,
    integer_masses,
    item_keys,
    key_sums,
    numbering,
    summed,
    support_cap,
    vector_law,
)
from .ignorance import (
    Family,
    NuisancePolicy,
    Predictand,
    ProcessSplit,
    dirac_fix,
    ignore_model,
    make_split,
    point_values,
    transform_target,
)
from .sampling import (
    ObservationScheme,
    SurveyModel,
    VALUES_AND_MAPPING,
    VALUES_MAPPING_DESIGN,
    observed_ranks,
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


class Witness(Record):
    """One comparison performed by an equivalence test."""

    kind: str
    equal: bool
    detail: tuple  # ((name, value), ...) canonical-value payload


class EquivalenceResult(Record):
    equivalent: bool
    alpha: Fraction | None
    witnesses: tuple


def _ranks(original: Family, ignored: Family, target) -> tuple:
    """(values, [ranks]): the values of the target on the original family
    and of its counterpart (`transform_target`) on the ignored one,
    numbered in canonical_key order, the first of each key kept, and per
    family the rank of each point number's value; each value object is
    keyed once.  Each call evaluates the target once per distinct marginal
    of both families when they share their codings (see `point_values`)."""
    memo, target_star = {}, transform_target(target, original, ignored)
    sides = (point_values(target, original, memo), point_values(target_star, ignored, memo if ignored._coded is original._coded else {}))
    objects = {id(v): v for values in sides for v in values}
    ranks, firsts = numbering([canonical_key(v) for v in objects.values()])
    by_id, reprs = dict(zip(objects, ranks)), list(objects.values())
    return tuple(reprs[i] for i in firsts), [[by_id[id(v)] for v in values] for values in sides]


def _coarse_table(family: Family, ranks: list, columns: dict, width: int) -> dict:
    """{value rank: row}: for each target value, the sup over its preimage
    of the mass of each compared observation, the likelihood of a coarsened
    parameter.  `ranks` numbers the target value of each point number, and
    `columns` maps the family's observation codes to the `width` compared
    observations.  A cell is (integer mass, denominator), compared with
    others by cross-multiplication."""
    table = {}
    for rank, (denominator, sums) in zip(ranks, family.observation_tables()):
        row = table.get(rank)
        if row is None:
            row = table[rank] = [(0, 1)] * width
        for code, n in sums.items():
            j = columns.get(code)
            if j is not None and n * row[j][1] > row[j][0] * denominator:
                row[j] = (n, denominator)
    return table


def likelihood_equivalent(original: Family, ignored: Family, x, target) -> EquivalenceResult:
    """Exact proportionality of the two likelihood tables.

    With x=None the proportionality constant must be shared across every
    positive-mass observation of either family (uniform reading); with a
    concrete x only that observation's tables are compared (local reading).
    Target values and compared observations are numbered once, in
    canonical_key order, and the tables are indexed by those numbers.
    """
    reprs, ranks = _ranks(original, ignored, target)
    if x is not None:
        xs = (x,)
        columns = [{family.observation_code(x): 0} for family in (original, ignored)]
    else:  # merged from the interned keys; an observation of the original is its own
        (xa, ca), (xb, cb) = ((f.observation_support(), f.observation_codes()) for f in (original, ignored))
        merged, firsts = numbering([*ca, *cb])  # the keys of each family in code order
        both = xa + xb
        xs = tuple(both[i] for i in firsts)
        columns = [dict(enumerate(merged[:len(ca)])), dict(enumerate(merged[len(ca):]))]
    table_a, table_b = (_coarse_table(f, r, cols, len(xs)) for f, r, cols in zip((original, ignored), ranks, columns))
    zeros = [(0, 1)] * len(xs)
    cells = (
        ((v, j), a, b)
        for v in sorted(set(table_a) | set(table_b))
        for j, (a, b) in enumerate(zip(table_a.get(v, zeros), table_b.get(v, zeros)))
    )

    alpha = None  # (numerator, denominator) of b / a
    violation = None
    any_positive = False
    for key, a, b in cells:
        if a[0] == 0 and b[0] == 0:
            continue
        any_positive = True
        if a[0] == 0 or b[0] == 0:
            violation = (key, a, b)
            break
        ratio = (b[0] * a[1], b[1] * a[0])
        if alpha is None:
            alpha = ratio
        elif ratio[0] * alpha[1] != alpha[0] * ratio[1]:
            violation = (key, a, b)
            break
    if not any_positive:
        raise EmptyTables("observation has zero mass in both families")

    witnesses = [
        Witness(
            kind="likelihood_tables",
            equal=violation is None,
            detail=(
                ("original", _table_payload(table_a, reprs, xs)),
                ("ignored", _table_payload(table_b, reprs, xs)),
            ),
        )
    ]
    alpha = Fraction(*alpha) if alpha is not None else None
    if violation is None:
        return EquivalenceResult(True, alpha, tuple(witnesses))
    (v, j), a, b = violation
    witnesses.append(
        Witness(
            kind="proportionality_violation",
            equal=False,
            detail=(
                ("target_value", reprs[v]),
                ("observation", xs[j]),
                ("original_mass", Fraction(*a)),
                ("ignored_mass", Fraction(*b)),
                ("alpha_so_far", alpha),
            ),
        )
    )
    return EquivalenceResult(False, None, tuple(witnesses))


def _table_payload(table, reprs, xs):
    return tuple(((reprs[v], xs[j]), Fraction(*cell)) for v in sorted(table) for j, cell in enumerate(table[v]))


def sampling_dist_equivalent(original: Family, ignored: Family, estimator, target) -> EquivalenceResult:
    """Set equality, per target value, of exact estimator distributions.
    The estimator is evaluated once per observation object (the families
    share their codings), the estimates of both are numbered once, and a
    point's distribution is keyed by its reduced integer mass vector on
    those numbers."""
    reprs, ranks = _ranks(original, ignored, target)
    supports = [family.observation_support() for family in (original, ignored)]
    observations = {id(x): x for x in itertools.chain(*supports)}
    estimates = {i: estimator(x) for i, x in observations.items()}
    numbered = dict(zip(estimates, numbering([canonical_key(e) for e in estimates.values()])[0]))
    groups = ({}, {})  # per family: {value rank: {key: law}}
    for family, xs, rank, group in zip((original, ignored), supports, ranks, groups):
        codes = [numbered[id(x)] for x in xs]
        first = dict(zip(reversed(codes), (estimates[id(x)] for x in reversed(xs))))  # the estimate of the lowest code
        for r, (denominator, sums) in zip(rank, family.observation_tables()):
            key = summed(((codes[c], n) for c, n in sums.items()), denominator)
            if key not in group.setdefault(r, {}):
                group[r][key] = vector_law(first, key)
    witnesses = []
    for v in sorted(groups[0].keys() | groups[1].keys()):
        da, db = (group.get(v, {}) for group in groups)
        sets = [tuple(sorted(d.values(), key=canonical_key)) for d in (da, db)]
        detail = (("target_value", reprs[v]), ("original", sets[0]), ("ignored", sets[1]))
        witnesses.append(Witness("estimator_distribution_sets", da.keys() == db.keys(), detail))
    return EquivalenceResult(all(w.equal for w in witnesses), None, tuple(witnesses))


def _target_columns(families, priors, target) -> tuple:
    """(target values, per family its `_columns` under each prior, a prior
    given as (point number, weight) pairs): a point target's code is its
    value's rank (see `_ranks`), a predictand's its value's code per world,
    shared by both families (see `Family.coded`)."""
    if isinstance(target, Predictand):
        if families[0].worlds is not families[1].worlds:
            raise EngineError("a predictand compares families on one numbering, as ignore_model builds")
        code, reprs, _keys = families[0].coded(target.fn)
        tables = [f.joint_sums(code) for f in families]
    else:
        reprs, ranks = _ranks(*families, target)
        tables = [[(d, {(c, r): n for c, n in sums.items()}) for r, (d, sums) in zip(rank, f.observation_tables())]
                  for f, rank in zip(families, ranks)]
    return reprs, [[_columns(table, q) for q in qs] for table, qs in zip(tables, priors)]


def _columns(tables: list, prior: list) -> dict:
    """{observation code: [(target code, weight)]}: per point number tables
    (denominator, {(observation code, target code): integer mass}) under
    one prior of (point number, weight) pairs, in prior order, each weight a
    point's prior mass times its mass in integers over one denominator; a
    column's sum is the evidence."""
    denominator = lcm(*(q.denominator * tables[i][0] for i, q in prior))
    columns = {}
    for i, q in prior:
        d, table = tables[i]
        factor = q.numerator * (denominator // (q.denominator * d))
        for (code, t), n in table.items():
            columns.setdefault(code, []).append((t, factor * n))
    return columns


def _posterior_sets(columns, codes) -> list:
    """[{vector}] per family at the observation of `codes` (its code in each
    family, or None): the reduced integer mass vector on target codes of the
    posterior under each prior with positive evidence.  Raises ZeroEvidence
    when no original prior has any."""
    out = []
    for by_prior, code in zip(columns, codes):
        found = {summed(column, sum(w for _t, w in column)) for column in (c[code] for c in by_prior if code in c)}
        if not found and not out:
            raise ZeroEvidence("observation has zero mass under every prior")
        out.append(found)
    return out


def posterior_equivalent(original: Family, ignored: Family, priors, priors_star, target, x) -> EquivalenceResult:
    """Set equality of posterior target distributions across the prior sets,
    read from each family's columns per prior (see `_target_columns`):
    priors with zero evidence at x are excluded, and ZeroEvidence is raised
    when every original-side prior has zero evidence."""
    families = (original, ignored)
    numbered = [[[(f.number[p], q) for p, q in prior.items] for prior in qs] for f, qs in zip(families, (priors, priors_star))]
    return _posterior_witness(families, *_target_columns(families, numbered, target), x)


def _posterior_witness(families, reprs, columns, x) -> EquivalenceResult:
    """The posterior-set comparison at x of columns built by `_target_columns`."""
    found = _posterior_sets(columns, [f.observation_code(x) for f in families])
    sets = [tuple(sorted((vector_law(reprs, d) for d in side), key=canonical_key)) for side in found]
    equal = found[0] == found[1]
    detail = (("observation", x), ("original", sets[0]), ("ignored", sets[1]))
    return EquivalenceResult(equal, None, (Witness("posterior_sets", equal, detail),))


def check_distinct(grid) -> bool:
    """Variation independence of the two parameter coordinates on the grid:
    its distinct (theta, phi) pairs fill the product of the coordinates'
    images (a model's is asked on its grid positions, `m.atoms.grid`, so
    that no label is keyed)."""
    pairs = set(grid)
    return len(pairs) == len({t for t, _p in pairs}) * len({p for _t, p in pairs})


# ---------------------------------------------------------------------------
# Rubin-shape machinery: signal + value-dependent missingness, observation
# exposing the selected units and their values.
# ---------------------------------------------------------------------------


class TheoremAudit(Record):
    theorem: str
    hypothesis_true: bool
    conclusion_true: bool
    notes: tuple = ()

    def counterexample(self) -> bool:
        return self.hypothesis_true and not self.conclusion_true


class RubinAuditReport(Record):
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


# z of a signal of zero mass: the signal itself (z contains y), or none;
# the column entry of a signal whose selection row raises
_Y, _NO_Z, _MARK = object(), object(), -1

# the one record of each (theorem, hypothesis, conclusion): records are
# immutable, so every report shares them; 6.2 notes whether the two agree
_RECORDS = {(name, h, c): TheoremAudit(name, h, c, (("iff", h == c),) if name == "6.2" else ())
            for name in ("6.1", "6.2", "6.3", "7.1", "7.2") for h in (False, True) for c in (False, True)}


def _row(column) -> tuple:
    """(row, d) of a design column (mapping ranks, integer masses, d): its masses by mapping rank, over d."""
    row = [0] * (max(column[0]) + 1)
    for k, n in zip(column[0], column[1]):
        row[k] = n
    return tuple(row), column[2]


class _Mapping:
    """What a context keeps per observed mapping, laid out on its first
    query: its key and each draw's unit position; then, as queries need
    them, the id offsets of the units it leaves free, its selection column
    at each phi position (its mass for every signal id as an integer over
    one scale, one int when flat), whether every column is flat, its `oar`
    flag and its 6.x flags."""

    __slots__ = ("key", "at", "offsets", "columns", "flat", "oar", "flags")

    def __init__(self, key, at, n_phis):
        self.key, self.at, self.columns = key, at, [None] * n_phis
        self.offsets = self.flat = self.oar = self.flags = None


class RubinContext:
    """The observation-free part of the missing-data checks on one model,
    built by `prepare_rubin` and queried by `mar`, `oar`, `possible` and `audit`.

    Signals are the tuples over the alphabet, numbered in product order,
    so the value of unit i in signal j is digit i of j in base |A|; no
    signal tuple is kept.  The first query builds, in one pass over the
    integer signal laws of `m.atoms` (`_z_of`), z per signal id, the theta
    marginals as integer numerators per signal id over one denominator per
    theta, and each signal's selection row at every phi: integer masses by
    mapping rank over one scale per phi, one row per design column of the
    atoms, so one per distinct design law.  Then kept as queries need
    them: a `_Mapping` record per observed mapping and the audit's joints.
    A query keys only the drawn values, and a mapping whose columns are
    all flat answers `mar` and `oar` without them.  Nothing is kept per
    observed value.  A row that raises is not kept and its column entry
    is `_MARK`; a query that reaches a mark among its own ids builds that
    row again, so it raises what a fresh context raises, in the same
    order: phi by phi, ids ascending.  Every query first checks x's values
    and mapping as the command line does (`observed_ranks`)."""

    def __init__(self, m: SurveyModel):
        self.population, self.alphabet, self.atoms, self.designs = m.population, m.alphabet, m.atoms, m.designs
        self.z_contains_y, self.phis = m.z_contains_y, tuple(m.designs)
        n, base = m.population.size, len(m.alphabet)
        self._base, self._size = base, base**n
        self._weights = tuple(base ** (n - 1 - i) for i in range(n))  # unit -> id weight
        self._rank = {canonical_key(a): i for i, a in enumerate(m.alphabet)}
        self._z = self._marginals = None  # built by `_z_of`
        self._at = None  # per phi position: `_rows`, built by `_z_of`
        self._mapping_rank = None  # canonical_key(mapping) -> rank, a rule's mappings after the model's; built by `_z_of`
        self._mappings = {}  # canonical_key(mapping) -> its `_Mapping`
        self._tables = None

    def _signal(self, j) -> tuple:
        alphabet, base = self.alphabet, self._base
        return tuple(alphabet[j // w % base] for w in self._weights)

    def _offsets(self, units) -> list:
        """Ascending id offsets of every value combination at `units`
        (ascending unit positions)."""
        offsets = [0]
        for i in units:
            w = self._weights[i]
            offsets = [o + d * w for o in offsets for d in range(self._base)]
        return offsets

    def _z_of(self) -> tuple:
        """z of each signal id, which the selection mass given y alone
        needs: the z the signal laws pair with it; for a signal of zero
        mass `_Y` by the z-contains-y convention, a constant z, or `_NO_Z`.
        Each distinct (y, z) of the model's atoms is keyed once; the same
        pass over `m.atoms.signals` sums each theta's marginal, its law's
        integer masses by signal id over its denominator d, and keeps each
        signal id's (y, z) rank, which a signal of zero mass under a
        constant z takes from a signal of that z; then every phi's rows
        are built (`_rows`)."""
        if self._z is None:
            atoms, rank, weights = self.atoms, self._rank.__getitem__, self._weights
            signals = []  # per (y, z) rank: (signal id, z, z's key)
            for y, z in atoms.yzs:
                zk = canonical_key(z)
                # when z is the signal tuple itself, its key holds its values' keys
                y_keys = item_keys(zk) if z is y and type(y) is tuple else map(canonical_key, y)
                signals.append((sum(map(mul, map(rank, y_keys), weights)), z, zk))
            seen, marginals = {}, []  # seen: signal id -> (z, z's key, (y, z) rank)
            for ranks, masses, d in atoms.signals:  # by theta position
                marginal = [0] * self._size
                for k, n in zip(ranks, masses):
                    j, z, zk = signals[k]
                    if seen.setdefault(j, (z, zk, k))[1] != zk:
                        raise NotRubinShape("design variable is not a function of the signal")
                    marginal[j] += n
                marginals.append((d, tuple(marginal)))
            zs = {entry[1]: entry for entry in seen.values()}  # by z's key
            other = (_Y, None, None) if self.z_contains_y else next(iter(zs.values())) if len(zs) == 1 else (_NO_Z, None, None)
            self._z, _keys, ranks = zip(*(seen.get(j, other) for j in range(self._size)))  # rank None: no z, or z the signal
            self._marginals = marginals
            self._mapping_rank = {canonical_key(r): i for i, r in enumerate(atoms.mappings)}
            columns = {id(c): c for cs in atoms.designs.values() for c in cs}  # one per design law object
            law_rows = {i: _row(c) for i, c in columns.items()}
            self._at = [self._rows(p, ranks, law_rows) for p in range(len(self.phis))]
        return self._z

    def _build_row(self, p, j) -> tuple:
        """(row, d) of the design law at the p-th phi given signal j, one the
        model's atoms do not hold (signal j has zero mass, and z is j itself
        or there is none): the law `Kernel.get` gives, by its rule, its
        mappings ranked after the model's (see `_row`)."""
        z = self._z[j]
        if z is _Y:
            z = self._signal(j)
        elif z is _NO_Z:
            raise NotRubinShape(f"cannot extend the design variable to signal {self._signal(j)!r}")
        delta = self.designs[self.phis[p]].get(z)
        ranks = self._mapping_rank
        return _row(([ranks.setdefault(canonical_key(r), len(ranks)) for r, _w in delta.items],
                     *integer_masses(delta.weights())))

    def _rows(self, p, ranks, law_rows) -> tuple:
        """(each signal id's row over one scale, None where it raises; the
        distinct rows; that scale, the lcm of the rows' d) at the p-th phi,
        given each signal's (y, z) rank: the row of the atoms' design
        column at that rank, from `law_rows` by id(column), or for a signal
        of no rank `_build_row`'s."""
        columns, rows = self.atoms.designs[self.phis[p]], [None] * self._size
        for j, k in enumerate(ranks):
            try:  # only a signal of no rank reads the rule, which may raise
                rows[j] = self._build_row(p, j) if k is None else law_rows[id(columns[k])]
            except Exception:
                pass
        distinct = {id(r): r for r in rows}  # None among them where a row raises
        scale = lcm(*[r[1] for r in distinct.values() if r])
        scaled = {k: r and tuple([n * (scale // r[1]) for n in r[0]]) for k, r in distinct.items()}
        return [scaled[id(r)] for r in rows], list(scaled.values()), scale

    def _checked(self, x) -> list:
        """The alphabet rank of each of x's values, once x's values and
        mapping pass the command line's check (`observed_ranks`)."""
        return observed_ranks(self._rank, self.population.labels, x[0], x[1])

    def _mapping(self, mapping) -> _Mapping:
        """The record of an observed mapping, laid out on its first query."""
        key = canonical_key(mapping)
        record = self._mappings.get(key)
        if record is None:
            at = tuple(map(self.population.labels.index, mapping))
            record = self._mappings[key] = _Mapping(key, at, len(self.phis))
        return record

    def _column(self, record, p) -> tuple:
        """(scale, entries) of the mapping at the p-th phi, over the phi's
        scale: one int when flat, else by id."""
        column = record.columns[p]
        if column is None:
            self._z_of()
            rows, distinct, scale = self._at[p]
            rank = self._mapping_rank.get(record.key)  # every row at p is built
            masses = {id(r): r[rank] if rank is not None and rank < len(r) else 0 for r in distinct if r is not None}
            flat = None not in distinct and len(set(masses.values())) < 2  # id(None) is no row's id
            entries = masses.popitem()[1] if flat else tuple(masses.get(id(r), _MARK) for r in rows)
            column = record.columns[p] = (scale, entries)
        return column

    def _entries(self, record, p, ids) -> tuple:
        """(scale, [entry at each of `ids`]) of the mapping's column at the
        p-th phi; at a mark, the first marked row is built again and raises."""
        scale, entries = self._column(record, p)
        got = [entries] * len(ids) if type(entries) is int else list(map(entries.__getitem__, ids))
        if _MARK in got:
            self._build_row(p, ids[got.index(_MARK)])
        return scale, got

    def _flat(self, record) -> bool:
        """Whether the mapping's column is flat at every phi: its mass is then
        one constant wherever it is looked at."""
        if record.flat is None:
            record.flat = all(type(self._column(record, p)[1]) is int for p in range(len(self.phis)))
        return record.flat

    def _drawn(self, ranks, record) -> dict | None:
        """{unit position: value rank} of the observed draws, or None when
        one unit was drawn with two different values (impossible x)."""
        self._z_of()  # z must be a function of y before any answer
        fixed = {}
        for r, i in zip(ranks, record.at):
            if fixed.setdefault(i, r) != r:
                return None
        return fixed

    def _ids(self, fixed, record) -> list:
        """Ids of the signals that agree with the draws `fixed` of the
        mapping, ascending: the drawn values' id plus each id offset of the
        units not drawn, so no other signal is looked at."""
        weights = self._weights
        if record.offsets is None:
            record.offsets = self._offsets([i for i in range(len(weights)) if i not in fixed])
        base = sum(r * weights[i] for i, r in fixed.items())
        return [base + o for o in record.offsets]

    def _constant(self, record, ids) -> bool:
        """Whether the mapping has one mass across the signals `ids` at every
        phi; a flat column holds at once."""
        return all(type(self._column(record, p)[1]) is int or len(set(self._entries(record, p, ids)[1])) < 2
                   for p in range(len(self.phis)))

    def mar(self, x) -> bool:
        """Missing at random at the observed (values, mapping): for every
        nuisance point, one selection mass of the observed mapping across
        every signal that agrees with the observed values."""
        ranks = self._checked(x)
        record = self._mapping(x[1])
        fixed = self._drawn(ranks, record)
        return fixed is None or self._flat(record) or self._constant(record, self._ids(fixed, record))

    def flags(self, xs) -> tuple:
        """(mar, oar) at every one of `xs`, observations of positive mass, as
        `all(map(self.mar, xs))` and then `all(map(self.oar, xs))` give
        them, each stopping at its first failure: `oar` is asked once per
        observed mapping, and `mar` once per mapping whose columns are all
        flat, where it holds at every observation."""
        flat, mar = {}, True  # flat: observed mapping -> whether its columns are all flat
        for x in xs:
            if not flat.get(x[1]):
                mar = self.mar(x)
                if not mar:
                    break
                flat[x[1]] = self._flat(self._mapping(x[1]))
        return mar, all(map(self.oar, {x[1]: x for x in xs}.values()))  # an x per mapping, in first-seen order

    def oar(self, x) -> bool:
        """Observed at random at the observed mapping: for every nuisance
        point and every value of the units outside the mapping, the
        selection mass of the mapping does not depend on the values of the
        units inside it."""
        self._checked(x)
        return self._oar_of(self._mapping(x[1]))

    def _oar_of(self, record) -> bool:
        if record.oar is None:
            groups = self._groups_of(record)
            record.oar = self._flat(record) or all(self._constant(record, ids) for ids in groups)
        return record.oar

    def possible(self, x) -> bool:
        """Whether x has positive mass at some grid point: a signal of positive
        mass there agrees with x (and its z) and the design draws x's mapping."""
        ranks = self._checked(x)
        record = self._mapping(x[1])
        fixed = self._drawn(ranks, record)
        ids, zs = set(() if fixed is None else self._ids(fixed, record)), self._z_of()
        joints = self._audit_tables()[2]
        return any(j in ids and s > 0 and (len(x) == 2 or canonical_key(zs[j]) == canonical_key(x[2]))
                   for _t, p, positive, _ws in joints for j, s in zip(positive, self._entries(record, p, positive)[1]))

    def _groups_of(self, record) -> Iterator[list]:
        """Ids of the signals grouped by their values at the units outside
        the record's mapping, one group at a time in order of their first
        id: the offsets of the units outside, each plus every offset of the
        units inside.  Nothing is built before the first group is asked for."""
        outside = [i for i in range(len(self._weights)) if i not in record.at]
        inside = self._offsets(sorted(set(record.at)))
        for o in self._offsets(outside):
            yield [o + i for i in inside]

    def _audit_tables(self) -> tuple:
        """(distinct flag, [(d, numerator per signal id)] by theta position,
        [joint] in grid order, [theta positions on the grid] by phi
        position), built on the first call and kept; d is the lcm of the
        denominators of theta's law, and a joint is (theta position, phi
        position, ids of the signals of positive mass, their numerators),
        which a mapping's column completes.  The largest support size of
        the joints is kept too and checked against the cap once per call."""
        if self._tables is None:
            self._z_of()  # which keeps the marginals
            marginals = self._marginals
            distinct = check_distinct(self.atoms.grid)
            joints, on_grid, largest, cap = [], [[] for _ in self.phis], 0, support_cap()
            positive = [[j for j, w in enumerate(mg) if w] for _d, mg in marginals]  # by theta position
            for ti, p in self.atoms.grid:
                mg = marginals[ti][1]
                ids, rows = positive[ti], self._at[p][0]
                joints.append((ti, p, ids, [mg[j] for j in ids]))
                on_grid[p].append(ti)
                size = sum(len(rows[j]) - rows[j].count(0) for j in ids)
                check_size(size, cap=cap)
                largest = max(largest, size)
            self._tables = (distinct, marginals, joints, on_grid), largest
        check_size(self._tables[1])
        return self._tables[0]

    def _mapping_flags(self, record) -> tuple:
        """(6.1 conclusion, 6.2 condition, 6.2 conclusion, 6.3 hypothesis,
        6.3 conclusion) at an observed mapping.  They read the mapping, its
        columns and the kept audit tables only, so they are kept per mapping."""
        _distinct, marginals, joints, _on_grid = self._tables[0]
        seen = ignoring = None

        # 6.3 hypothesis: the missingness mechanism is degenerate (entry e,
        # the column's scale) at the observed mapping for every signal of
        # positive mass.  6.1 conclusion: the ignoring distribution equals
        # the correct conditional distribution given the observed mapping,
        # wherever that mapping has positive mass.  6.2 condition: the mass
        # of the observed mapping given the observed part is one positive
        # constant; its conclusion counts undefined conditionals (mapping
        # of zero mass) as failures, which keeps the equivalence exact in
        # the finite case.  6.3 conclusion: the unconditional law of the
        # statistic is the ignoring distribution, so the mapping has mass 1
        # and its hits are that law.  The hits (no part outside the law)
        # and their sum k are numerators over d*e.  At a flat column of
        # entry s the hits are s times the law: each condition and
        # conclusion then reads s alone.
        concl_61 = cond_62 = concl_62 = hyp_63 = concl_63 = True
        for ti, p, ids, ws in joints:
            e, entry = self._column(record, p)
            if type(entry) is int:
                cond_62, concl_62 = cond_62 and entry > 0, concl_62 and entry > 0
                hyp_63, concl_63 = hyp_63 and entry == e, concl_63 and entry == e
                continue
            if seen is None:
                # signal id -> its values along the observed mapping, as digits
                base, weights = self._base, self._weights
                seen = {j: tuple([j // weights[i] % base for i in record.at])
                        for j in {j for _d, mg in marginals for j, w in enumerate(mg) if w}}
                # the ignoring distribution of each theta (the law of the observed part) over its d
                ignoring = [key_sums((seen[j], w) for j, w in enumerate(mg) if w) for _d, mg in marginals]
            entries = self._entries(record, p, ids)[1]
            d, law = marginals[ti][0], ignoring[ti]
            hyp_63 = hyp_63 and entries.count(e) == len(entries)
            hits = key_sums((seen[j], w * s) for j, w, s in zip(ids, ws, entries) if s)
            k, (p0, w0) = sum(hits.values()), next(iter(law.items()))
            h0 = hits.get(p0, 0)  # each part's ratio hits/law is the first part's
            cond_62 = cond_62 and h0 > 0 and all(hits.get(part, 0) * w0 == h0 * w for part, w in law.items())
            if k == 0:
                concl_62 = False
            elif any(hits.get(part, 0) * d != w * k for part, w in law.items()):
                concl_61 = concl_62 = False
            concl_63 = concl_63 and all(hits.get(part, 0) == w * e for part, w in law.items())
        record.flags = (concl_61, cond_62, concl_62, hyp_63, concl_63)
        return record.flags

    def audit(self, x) -> RubinAuditReport:
        """Evaluate hypotheses and conclusions of the classical missing-data
        theorems at x by exact enumeration; records the pairs, asserts
        nothing.  The statistic is the identity on (observed values,
        mapping), the finest one, so its distributional equality is
        equivalent to equality for every statistic."""
        ranks = self._checked(x)
        if len(set(x[1])) != len(x[1]):
            raise NotRubinShape("the observed mapping repeats a unit")
        # the signals that agree with x (no unit is drawn twice), shared by
        # MAR and the likelihoods
        record = self._mapping(x[1])
        ids = self._ids(self._drawn(ranks, record), record)
        mar = self._flat(record) or self._constant(record, ids)
        oar = self._oar_of(record)
        distinct, marginals, _joints, on_grid = self._audit_tables()

        # Likelihoods for 7.x: marginal of the observed values, and joint mass
        # of (values, mapping), both by exact summation over the signals that
        # agree with x; one per theta position, and one per theta position at
        # each phi, as integers over d_t and d_t times the column's scale at
        # phi; the scales cancel from every cross product below.  At a flat
        # column each joint mass is the entry times the marginal, so every
        # cross product holds there and the one ratio is the entry.
        # Elsewhere a theta of zero likelihood has zero joint mass and passes
        # against any other, and among the rest equal cross products make
        # equal ratios, so each grid theta is checked against the first of
        # positive likelihood.
        agreeing = [[mg[j] for j in ids] for _d, mg in marginals]
        lik = [sum(ns) for ns in agreeing]
        concl_71 = concl_72 = hyp_72b = True
        for p in range(len(self.phis)):
            entries = self._column(record, p)[1]
            if type(entries) is int:
                hyp_72b = hyp_72b and entries > 0
                continue
            s = self._entries(record, p, ids)[1]
            row = [sum(map(mul, ns, s)) for ns in agreeing]
            t0 = next((t for t in on_grid[p] if lik[t]), None)
            proportional = t0 is None or all(lik[t0] * row[t] == row[t0] * lik[t] for t in on_grid[p])
            concl_72 = concl_72 and proportional
            if all(e > 0 for e in s):
                concl_71 = concl_71 and proportional
            # one positive ratio row / lik: each theta's is the first theta's
            hyp_72b = hyp_72b and row[0] > 0 and all(f * lik[0] == row[0] * n for f, n in zip(row, lik))
        concl_61, cond_62, concl_62, hyp_63, concl_63 = record.flags or self._mapping_flags(record)
        pre_72 = all(n > 0 for n in lik)
        hyp_72b = pre_72 and hyp_72b

        audits = (
            _RECORDS["6.1", mar and oar, concl_61],
            _RECORDS["6.2", cond_62, concl_62],
            _RECORDS["6.3", hyp_63, concl_63],
            _RECORDS["7.1", mar and distinct, concl_71],
            _RECORDS["7.2", pre_72 and distinct and hyp_72b, concl_72],
        )
        return RubinAuditReport(x, mar, oar, distinct, audits)


def prepare_rubin(m: SurveyModel, scheme: ObservationScheme) -> RubinContext:
    """The missing-data context of a model, once the scheme is known to
    expose the selection mapping; its tables fill in as it is queried.

    There is one context per model object, kept in the model's instance
    dict as `functools.cached_property` keeps a value, and freed with the
    model.  The context holds the model's fields, not the model, so the
    two form no reference cycle."""
    if scheme.kind not in (VALUES_AND_MAPPING, VALUES_MAPPING_DESIGN):
        raise NotRubinShape("the observation scheme must expose the selection mapping")
    context = vars(m).get("_rubin_context")
    if context is None:
        context = vars(m)["_rubin_context"] = RubinContext(m)
    return context


def check_mar(m: SurveyModel, x, scheme: ObservationScheme | None = None) -> bool:
    """Missing at random (local) at x."""
    return prepare_rubin(m, scheme or values_and_mapping()).mar(x)


def check_oar(m: SurveyModel, x, scheme: ObservationScheme | None = None) -> bool:
    """Observed at random at x."""
    return prepare_rubin(m, scheme or values_and_mapping()).oar(x)


def rubin_theorem_audit(
    m: SurveyModel, x, scheme: ObservationScheme | None = None
) -> RubinAuditReport:
    """Audit the missing-data theorems at x."""
    return prepare_rubin(m, scheme or values_and_mapping()).audit(x)


# ---------------------------------------------------------------------------
# The classifier.
# ---------------------------------------------------------------------------


class ClassificationReport(Record):
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

    def number(v) -> int | Fraction:
        if type(v) is int or type(v) is Fraction:  # exact already: no Fraction built per value
            return v
        try:
            return Fraction(v)
        except (TypeError, ValueError):
            raise EngineError(f"the sample mean needs numeric values; observed value {v!r} is not a number") from None

    def mean(x):
        values = values_part(x)
        if not values:
            return Fraction(0)
        return Fraction(sum(map(number, values)), len(values))

    return mean


class PreparedCheck(Record):
    """The observation-free part of a classification: the original family,
    the classified split, the ignored family and the target, which each
    test carries across (see `_ranks`).  Built once by `prepare`, then
    queried by `test` per inference type and observation, which share its
    posterior columns under the default priors."""

    model: SurveyModel
    scheme: ObservationScheme
    policy: NuisancePolicy
    family: Family
    split: ProcessSplit
    ignored: Family
    target: object

    @cached_property
    def _default_columns(self) -> tuple:
        """`_target_columns` of both families under the priors of a Bayesian
        test given none: uniform on the grid, and the product of that and
        the uniform nuisance prior, which is uniform on the ignored points;
        built once per check."""
        families = (self.family, self.ignored)
        priors = [[[(i, Fraction(1, len(f.points))) for i in range(len(f.points))]] for f in families]
        return _target_columns(families, priors, self.target)

    def posterior_verdicts(self) -> list:
        """Whether the posterior sets under the default priors are equal at
        each observation of the original family, in code order: the Bayes
        test at every observation in one pass over the columns, with no
        witness built."""
        columns = self._default_columns[1]
        codes_b = self.ignored.observation_codes()
        found = (_posterior_sets(columns, (c, codes_b.get(k))) for k, c in self.family.observation_codes().items())
        return [a == b for a, b in found]

    def test(self, inference_type: str, x, estimator=None) -> ClassificationReport:
        """Run the equivalence test of one inference type at x (None for
        the uniform reading).  The verdict is informative exactly when a
        witness inequality exists."""
        family, ignored = self.family, self.ignored
        if inference_type == LIKELIHOOD_BASED:
            result = likelihood_equivalent(family, ignored, x, self.target)
        elif inference_type == FREQUENTIST:
            if estimator is None:
                raise EngineError("frequentist classification needs an estimator")
            result = sampling_dist_equivalent(family, ignored, estimator, self.target)
        elif inference_type == BAYESIAN:
            if x is None:
                raise EngineError("Bayesian classification needs an observation")
            result = _posterior_witness((family, ignored), *self._default_columns, x)
        else:
            raise EngineError(f"unknown inference type {inference_type!r}")

        m, policy = self.model, self.policy
        flags = [
            ("z_contains_y", m.z_contains_y),
            ("non_separated_grid", not check_distinct(m.atoms.grid)),
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
    split: tuple,
    scheme: ObservationScheme,
    target,
    policy: NuisancePolicy,
) -> PreparedCheck:
    """Build the original family, split it by the (v, v_bar) pair with
    `make_split` and ignore the nuisance process under the policy."""
    family = Family.from_survey_model(m, scheme)
    proc_split = make_split(family, *split)
    return PreparedCheck(model=m, scheme=scheme, policy=policy, family=family, split=proc_split,
                         ignored=ignore_model(family, proc_split, policy), target=target)


def classify(
    m: SurveyModel,
    split,
    scheme: ObservationScheme,
    inference_type: str,
    target,
    x=None,
    policy: NuisancePolicy | None = None,
    estimator=None,
) -> ClassificationReport:
    """Decide whether the nuisance process is ignorable for one inference
    type: `prepare` the ignored family, then `test` it at x."""
    prepared = prepare(m, split, scheme, target, policy or dirac_fix())
    return prepared.test(inference_type, x, estimator)
