"""A deliberately naive ignore transformation and the paper's three
equivalence tests, the reference the engine is checked against.

Laws are dicts {world: Fraction}.  Compatibility sets are found by scanning
the space, and each law is conditioned on them and re-mixed against a
nuisance law by the paper's three policies.  Likelihood tables, estimator
distributions and posteriors are read off the laws by summing the mass of
each observation.  Nothing is numbered,
keyed or cached: worlds and values are compared by Python equality, so an
input must not mix values that are equal across types (1 and Fraction(1),
1 and True).  `rubin_audit` does the same for the missing-data theorems:
it enumerates every signal and reads each theorem off its definition.

`u64_blocks` groups the engine's simulated draws into the blocks it
evaluates them in.  `dist_eq` and `split_on` at the end are shorthands for
the tests over the engine's own entries; the reference functions do not
use them.
`first_of_each_key` states the rule the engine's numberings keep when
values of different types share a canonical_key.
"""

import itertools
from fractions import Fraction

from ignorability_lab import mc
from ignorability_lab.exactprob import canonical_key
from ignorability_lab.ignorance import Family, make_split
from ignorability_lab.sampling import SurveyModel, WorldState


def survey_family(m: SurveyModel) -> tuple:
    """(space, {grid point: law}) of a survey model: every (y, z) of a
    signal law with every mapping of a design, zero-probability worlds
    included, and each point's joint law of (y, z) and then r given z."""
    kernels = m.designs.values()
    yzs = list(dict.fromkeys(yz for theta in m.thetas for yz, _w in m.signal_law[theta].items))
    mappings = list(dict.fromkeys(r for k in kernels for _z, delta in k.entries for r, _w in delta.items))
    space = [WorldState(y, z, r) for y, z in yzs for r in mappings]
    laws = {}
    for theta, phi in m.grid:
        kernel = m.designs[phi]
        law = {}
        for (y, z), w in m.signal_law[theta].items:
            for r, wr in _design_at(kernel, z).items:
                law[WorldState(y, z, r)] = law.get(WorldState(y, z, r), Fraction(0)) + w * wr
        laws[theta, phi] = law
    return space, laws


def _design_at(kernel, z):
    for value, delta in kernel.entries:
        if value == z:
            return delta
    return kernel.rule(z)


def phi_set(space, v, v_bar, b) -> list:
    """The worlds whose v-value occurs somewhere on the space with the
    nuisance value b."""
    compatible = [v(w) for w in space if v_bar(w) == b]
    return [w for w in space if v(w) in compatible]


def ignore(space, points, laws, v, v_bar, policy, dist=None):
    """{(point, nuisance index): {world: mass}} of the ignored family, or
    the name of the engine error the case must raise.

    `policy` is "dirac_fix", "single_arbitrary" (with `dist`, a dict on
    nuisance values, or uniform on the image) or "marginal_family"."""
    space = list(dict.fromkeys(space))
    pairs = [(v(w), v_bar(w)) for w in space]
    if any(pairs.count(pair) > 1 for pair in pairs):
        return "NotAComplement"
    image = list(dict.fromkeys(b for _a, b in pairs))
    for p in points:
        for b in image:
            if not any(laws[p].get(w) for w in phi_set(space, v, v_bar, b)):
                return "ZeroMassPhiSet"
    if policy == "dirac_fix":
        nuisances = [(p, b, {b: Fraction(1)}) for p in points for b in image]
    elif policy == "single_arbitrary":
        if dist is None:
            dist = {b: Fraction(1, len(image)) for b in image}
        if any(b not in image for b in dist):
            return "ValueNotInImage"
        nuisances = [(p, "arbitrary", dist) for p in points]
    else:
        nuisances = []
        for p in points:
            marginal = {}
            for w, mass in laws[p].items():
                marginal[v_bar(w)] = marginal.get(v_bar(w), Fraction(0)) + mass
            nuisances.append((p, p, marginal))
    out = {}
    for p, index, nuisance in nuisances:
        law = {}
        for b, weight in nuisance.items():
            phi = phi_set(space, v, v_bar, b)
            total = sum(laws[p].get(w, Fraction(0)) for w in phi)
            for w in phi:
                if laws[p].get(w):
                    target = next(u for u in space if (v(u), v_bar(u)) == (v(w), b))
                    law[target] = law.get(target, Fraction(0)) + weight * laws[p][w] / total
        out[p, index] = law
    return out


def _observation_law(law, obs) -> dict:
    """{observation: mass} of one law through a world function."""
    masses = {}
    for w, mass in law.items():
        masses[obs(w)] = masses.get(obs(w), Fraction(0)) + mass
    return masses


def likelihood_table(laws, obs, values, xs) -> dict:
    """{target value: [likelihood of each x in xs]}: for each target value,
    the sup over its preimage of the mass each point's law puts on x.
    `laws`, `obs` (a world function) and `values` are per point."""
    table = {}
    for p, law in laws.items():
        masses = _observation_law(law, obs[p])
        row = table.setdefault(values[p], [Fraction(0)] * len(xs))
        for j, x in enumerate(xs):
            row[j] = max(row[j], masses.get(x, Fraction(0)))
    return table


def likelihood_equivalent(original, ignored, x=None):
    """(equivalent, alpha) of the likelihood test between two families,
    each given as (laws, obs, values), or "EmptyTables" when no cell of
    either table is positive.  The tables must be proportional with one
    alpha > 0, jointly over every observation of positive mass in either
    family (x None, uniform) or at x alone (local)."""
    if x is None:
        xs = list(dict.fromkeys(
            obs[p](w) for laws, obs, _values in (original, ignored) for p, law in laws.items() for w in law
        ))
    else:
        xs = [x]
    a, b = (likelihood_table(*family, xs) for family in (original, ignored))
    zeros = [Fraction(0)] * len(xs)
    ratios = set()
    for value in a.keys() | b.keys():
        for mass_a, mass_b in zip(a.get(value, zeros), b.get(value, zeros)):
            if mass_a == 0 and mass_b == 0:
                continue
            if mass_a == 0 or mass_b == 0:
                return False, None
            ratios.add(mass_b / mass_a)
    if not ratios:
        return "EmptyTables"
    return (True, ratios.pop()) if len(ratios) == 1 else (False, None)


def estimator_sets(laws, obs, values, estimator) -> dict:
    """{target value: set of estimator distributions}: each point's law of
    the estimator of its observation, as a frozenset of (estimate, mass)
    pairs, collected over the points of each target value."""
    sets = {}
    for p, law in laws.items():
        dist = {}
        for x, mass in _observation_law(law, obs[p]).items():
            dist[estimator(x)] = dist.get(estimator(x), Fraction(0)) + mass
        sets.setdefault(values[p], set()).add(frozenset(dist.items()))
    return sets


def sampling_dist_equivalent(original, ignored, estimator) -> tuple:
    """(equivalent, {target value: (original set, ignored set)}) of the
    frequentist test between two families, each given as (laws, obs,
    values): per target value of either family, the sets of estimator
    distributions over its preimage must be equal."""
    a, b = (estimator_sets(*family, estimator) for family in (original, ignored))
    sets = {value: (a.get(value, set()), b.get(value, set())) for value in a.keys() | b.keys()}
    return all(sa == sb for sa, sb in sets.values()), sets


def posterior_set(laws, obs, values, priors, x, predictand=None) -> set:
    """The posterior target distributions given x, one per prior (a dict
    {point: mass}) with positive evidence, each a frozenset of (target
    value, mass) pairs: the prior mass of each point times the mass of each
    of its worlds observed as x, summed by the point's target value (or by
    the `predictand` of the world) and normalised."""
    out = set()
    for prior in priors:
        dist = {}
        for p, q in prior.items():
            for w, mass in laws[p].items():
                if q and obs[p](w) == x:
                    t = predictand(w) if predictand else values[p]
                    dist[t] = dist.get(t, Fraction(0)) + q * mass
        evidence = sum(dist.values(), Fraction(0))
        if evidence:
            out.add(frozenset((t, m / evidence) for t, m in dist.items()))
    return out


def posterior_equivalent(original, ignored, priors, priors_star, x, predictand=None):
    """(equal, original set, ignored set) of the Bayes test at x, each
    family given as (laws, obs, values) with its own priors, or
    "ZeroEvidence" when x has zero evidence under every original prior."""
    set_a = posterior_set(*original, priors, x, predictand)
    if not set_a:
        return "ZeroEvidence"
    set_b = posterior_set(*ignored, priors_star, x, predictand)
    return set_a == set_b, set_a, set_b


def distinct_grid(grid) -> bool:
    """Rubin's distinct parameters on a list of (theta, phi) points: each
    theta of the grid with each phi of the grid is a grid point."""
    return all((t, phi) in grid for t, _ in grid for _, phi in grid)


def rubin_audit(m: SurveyModel, x) -> tuple:
    """(mar, oar, distinct, (theorem, hypothesis, conclusion, notes) of
    6.1, 6.2, 6.3, 7.1 and 7.2) of the missing-data theorems at x = (values,
    mapping), or "NotRubinShape" when the mapping repeats a unit or a signal
    has two design variables or none.

    Every signal over the alphabet is enumerated, with its mass p[t][y]
    under each theta and the mass pi(phi, y) its design gives the observed
    mapping.  A signal of mass zero everywhere takes z = y when z contains
    y, else the one z every signal shares; the engine asks for it only when
    a query reads that signal, so this refuses more models than the engine.
    """
    values, mapping = tuple(x[0]), tuple(x[1])
    if len(set(mapping)) != len(mapping):
        return "NotRubinShape"
    labels = m.population.labels
    laws = [m.signal_law[t] for t in m.thetas]
    alphabet = list(dict.fromkeys(v for law in laws for (y, _z), _w in law.items for v in y))
    signals = list(itertools.product(alphabet, repeat=len(labels)))
    p, z_of = {t: {} for t in m.thetas}, {}
    for t, law in zip(m.thetas, laws):
        for (y, z), w in law.items:
            if z_of.setdefault(y, z) != z:
                return "NotRubinShape"
            p[t][y] = p[t].get(y, Fraction(0)) + w
    shared = []  # the distinct design variables of the signals
    for z in z_of.values():
        if z not in shared:
            shared.append(z)
    for y in signals:
        if y not in z_of:
            if not m.z_contains_y and len(shared) != 1:
                return "NotRubinShape"
            z_of[y] = y if m.z_contains_y else shared[0]
    phis = tuple(m.designs)

    def pi(phi, y):
        kernel = m.designs[phi]
        return sum((w for r, w in _design_at(kernel, z_of[y]).items if r == mapping), Fraction(0))

    at = [labels.index(k) for k in mapping]
    completions = [y for y in signals if all(y[i] == v for i, v in zip(at, values))]
    mar = all(len({pi(phi, y) for y in completions}) <= 1 for phi in phis)
    outside = [i for i in range(len(labels)) if i not in at]
    oar = all(
        len({pi(phi, y) for y in signals if all(y[i] == u[i] for i in outside)}) == 1
        for phi in phis for u in signals
    )
    grid = list(m.grid)
    distinct = distinct_grid(grid)

    # 6.x at each grid point: the ignoring law of the observed part y[at]
    # against its law jointly with the observed mapping (hits), of total k
    concl_61 = cond_62 = concl_62 = hyp_63 = concl_63 = True
    for t, phi in grid:
        law, hits = {}, {}
        for y, w in p[t].items():
            part = tuple(y[i] for i in at)
            law[part] = law.get(part, Fraction(0)) + w
            if pi(phi, y):
                hits[part] = hits.get(part, Fraction(0)) + w * pi(phi, y)
            hyp_63 = hyp_63 and pi(phi, y) == 1
        k = sum(hits.values(), Fraction(0))
        conditional = {part: h / k for part, h in hits.items()} if k else None
        concl_61 = concl_61 and (k == 0 or conditional == law)
        ratios = {hits.get(part, Fraction(0)) / w for part, w in law.items()}
        cond_62 = cond_62 and len(ratios) == 1 and 0 not in ratios
        concl_62 = concl_62 and conditional == law
        concl_63 = concl_63 and k == 1 and hits == law

    # 7.x: the likelihood of the observed values alone and jointly with the
    # mapping, summed over the completions of x
    lik = {t: sum((p[t].get(y, Fraction(0)) for y in completions), Fraction(0)) for t in m.thetas}
    full = {
        (t, phi): sum((p[t].get(y, Fraction(0)) * pi(phi, y) for y in completions), Fraction(0))
        for t in m.thetas for phi in phis
    }

    def proportional(at_phis):
        return all(
            lik[t1] * full[t2, phi] == full[t1, phi] * lik[t2]
            for phi in at_phis for t1 in m.thetas for t2 in m.thetas
            if (t1, phi) in grid and (t2, phi) in grid
        )

    pre_72 = all(lik[t] > 0 for t in m.thetas)
    hyp_72b = pre_72 and all(
        len(ratios) == 1 and min(ratios) > 0
        for ratios in ({full[t, phi] / lik[t] for t in m.thetas} for phi in phis)
    )
    return (
        mar, oar, distinct,
        ("6.1", mar and oar, concl_61, ()),
        ("6.2", cond_62, concl_62, (("iff", cond_62 == concl_62),)),
        ("6.3", hyp_63, concl_63, ()),
        ("7.1", mar and distinct, proportional([phi for phi in phis if all(pi(phi, y) > 0 for y in completions)]), ()),
        ("7.2", pre_72 and distinct and hyp_72b, proportional(phis), ()),
    )


def u64_blocks(seed: int, draws: int):
    """Yield mc.u64(seed, i) for i = 0 .. draws - 1, in sequences of at
    most mc.BLOCK draws, as `mc.tally` reads them."""
    return map(mc._draws_of, mc._slot_bytes(seed, draws))


def dist_eq(a, b) -> bool:
    """The engine's law equality: equal canonical forms."""
    return canonical_key(a) == canonical_key(b)


def split_on(support, v, v_bar):
    """`make_split` on a bare support: a family with no points over it."""
    return make_split(Family((), {}, {}, space=support), v, v_bar)


def first_of_each_key(values) -> list:
    """The first of `values` with each canonical_key, in canonical_key
    order: the value an engine numbering keeps for a key that values of
    different types share (1 and Fraction(1))."""
    firsts = []
    for v in values:
        if all(canonical_key(u) != canonical_key(v) for u in firsts):
            firsts.append(v)
    return sorted(firsts, key=canonical_key)
