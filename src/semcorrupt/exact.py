"""Exact finite-distribution engine.

Joint distributions over named discrete variables are stored sparsely and
manipulated without sampling, so distributional identities (factorizations,
conditional independences, reweighting bounds) can be checked to float
precision on small synthetic families.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import UndefinedWeightError

SUM_TOL = 1e-12
POSTERIOR_FLOOR = 1e-12
BOUND_SLACK = 1e-9        # float noise allowed above corruption_bound's bound


def _given_mass(cells: Mapping) -> dict:
    """The mass of each second value of a two-variable table's ``cells``,
    summed in cell order: the divisor of ``posterior``."""
    mass: dict = {}
    for (_tv, gv), p in cells.items():
        mass[gv] = mass.get(gv, 0.0) + p
    return mass


class JointTable:
    """Sparse exact pmf over a tuple of named variables.

    A table holds only its variables and its cells, and ``cells`` must
    never be mutated.  The constructor checks every cell (a key of the
    variables' arity, a probability that is not NaN and not negative beyond
    rounding dust, which it drops) and that the cells sum to one, so none
    is infinite.  A marginal sums cells already checked, so it checks only
    its names (known, none repeated) and its total.
    """

    __slots__ = ("variables", "cells")

    def __init__(self, variables, cells: Mapping):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable names")
        clean = {}
        for key, prob in cells.items():
            k = key if isinstance(key, tuple) else (key,)
            if len(k) != len(vs):
                raise ValueError(f"cell key {k!r} does not match variables {vs}")
            p = float(prob)
            if p > 0.0:
                clean[k] = p
            elif not p >= -1e-15:   # NaN fails every comparison
                kind = "negative" if p < 0.0 else "non-finite"
                raise ValueError(f"{kind} probability {p} at {k!r}")
        self._hold(vs, clean)

    def _hold(self, variables: tuple, cells: dict) -> "JointTable":
        """This table, holding ``cells`` (positive floats keyed by tuples of
        the arity of ``variables``) once their total is checked."""
        total = math.fsum(cells.values())
        if not abs(total - 1.0) <= SUM_TOL:   # a NaN total fails too
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.variables = variables
        self.cells = cells
        return self

    @property
    def supports(self) -> dict:
        """Sorted values of each variable that carry mass, on each access."""
        return {name: tuple(sorted({k[i] for k in self.cells}))
                for i, name in enumerate(self.variables)}

    def _indices(self, names):
        try:
            return [self.variables.index(n) for n in names]
        except ValueError:
            raise ValueError(f"unknown variable among {names!r}; have {self.variables}")

    def marginal(self, *names: str) -> "JointTable":
        if names == self.variables:
            return self
        idx = self._indices(names)
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate variable names")
        out: dict = {}
        for key, p in self.cells.items():
            sub = tuple([key[i] for i in idx])
            out[sub] = out.get(sub, 0.0) + p
        # sums of this table's checked cells: only their total is checked again
        return JointTable.__new__(JointTable)._hold(names, out)

    def prob(self, **assignment) -> float:
        idx = self._indices(assignment.keys())
        want = tuple(assignment.values())
        total = 0.0
        for key, p in self.cells.items():
            if tuple(key[i] for i in idx) == want:
                total += p
        return total

    def posterior(self, target: str, given: str) -> dict:
        """dict mapping each given-value with mass to {target-value: prob}."""
        cells = self.marginal(target, given).cells
        mass = _given_mass(cells)
        table: dict = {}
        for (tv, gv), p in cells.items():
            table.setdefault(gv, {})[tv] = p / mass[gv]
        return table

    def extend_independent(self, name: str, pmf: Mapping) -> "JointTable":
        out = {}
        for key, p in self.cells.items():
            for val, q in pmf.items():
                out[key + (val,)] = p * q
        return JointTable(self.variables + (name,), out)

    def with_derived(self, name: str, fn: Callable, args) -> "JointTable":
        idx = self._indices(args)
        out: dict = {}
        for key, p in self.cells.items():
            val = fn(*(key[i] for i in idx))
            new = key + (val,)
            out[new] = out.get(new, 0.0) + p
        return JointTable(self.variables + (name,), out)

    def l1(self, other: "JointTable") -> float:
        if self.variables != other.variables:
            raise ValueError("tables must share variables")
        keys = set(self.cells) | set(other.cells)
        return math.fsum([abs(self.cells.get(k, 0.0) - other.cells.get(k, 0.0)) for k in keys])


class FiniteCorruption:
    """Finite-noise corruption: a map (x, delta) -> t plus a delta pmf."""

    def __init__(self, fn: Callable, delta_pmf: Mapping, label: str = "corruption"):
        if not all(0.0 <= v < math.inf for v in delta_pmf.values()):
            raise ValueError("delta probabilities must be finite and non-negative")
        total = math.fsum(float(v) for v in delta_pmf.values())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"delta pmf sums to {total!r}, not 1")
        self.fn = fn
        self.delta_pmf = dict(delta_pmf)
        self.label = label

    @classmethod
    def deterministic(cls, fn: Callable, label: str = "deterministic"):
        return cls(lambda x, _d: fn(x), {0: 1.0}, label)

    @classmethod
    def coordinate_permutations(cls, k: int, label: str = "coordinate-permutation"):
        """Uniformly permute the coordinates of a length-k tuple."""
        perms = list(itertools.permutations(range(k)))
        p = 1.0 / len(perms)
        if k >= 2:   # itemgetter of two or more indices returns a tuple
            getters = {perm: operator.itemgetter(*perm) for perm in perms}
            fn = lambda x, perm: getters[perm](x)
        else:
            fn = lambda x, perm: tuple(x[i] for i in perm)
        return cls(fn, {perm: p for perm in perms}, label)


def _first_pass(p: JointTable) -> tuple:
    """``(factors, y_m, yx)`` from one pass over the cells of ``p``, a table
    over exactly (y, z, x), which sums its y, z, (y, z) and (y, x)
    marginals (each the same sums in the same order as ``marginal``'s) and
    hands them on.  ``y_m`` maps each label to p(y), ``yx`` is the (y, x)
    marginal's cells, and ``factors`` maps each (y, z) pair with mass to
    ``(p(y) p(z), p(y, z), p(y | z))``, p(y | z) divided as ``posterior``
    divides it.  A label and a nuisance with mass that never meet raise."""
    y_m, z_m, yz, yx = {}, {}, {}, {}
    for (y, z, x), q in p.cells.items():
        y_m[y] = y_m.get(y, 0.0) + q
        z_m[z] = z_m.get(z, 0.0) + q
        yz[(y, z)] = yz.get((y, z), 0.0) + q
        yx[(y, x)] = yx.get((y, x), 0.0) + q
    if len(yz) < len(y_m) * len(z_m):   # some pair has no mass
        for y, qy in y_m.items():
            for z, qz in z_m.items():
                if qy * qz > 0.0 and (y, z) not in yz:
                    raise ValueError(
                        f"pair (y={y!r}, z={z!r}) has zero joint mass, so "
                        "p(x | y, z) is undefined; use DiscreteFamily.nuisance_randomized")
    z_mass = _given_mass(yz)
    factors = {(y, z): (y_m[y] * z_m[z], q, q / z_mass[z]) for (y, z), q in yz.items()}
    return factors, y_m, yx


def _randomized(p: JointTable, factors: dict, table=None, post_t=None) -> tuple:
    """``(pp, target, eps2, m2)`` from one pass over the cells of ``p``, a
    table over exactly (y, z, x), and its ``factors`` (:func:`_first_pass`).
    ``pp`` is p(y) p(z) p(x | y, z) and ``target`` its (y, x) marginal's
    cells, the same sums in the same order as ``marginal``'s.  Given
    a corruption's image table and p(y | t) (:func:`_images`,
    :func:`_posterior_given_corrupted`), ``eps2`` and ``m2`` sum
    (p(y | t) - p(y | z))^2 and p(y | t)^-2 over pp times the noise;
    without them both are 0."""
    out: dict = {}
    target: dict = {}
    eps2 = m2 = 0.0
    for (y, z, x), q in p.cells.items():
        c, pyz, pz = factors[(y, z)]
        v = c * q / pyz   # p(y) p(z) q / p(y, z)
        if v > 0.0:   # finite, as q <= p(y, z); zero only by underflow
            out[(y, z, x)] = v
            target[(y, x)] = target.get((y, x), 0.0) + v
            if table is not None:
                for pd, t, j in table[x]:
                    pt = post_t[j].get(y, 0.0)
                    if pt < POSTERIOR_FLOOR:
                        raise _floor_error(t, y)
                    w = v * pd
                    eps2 += w * (pt - pz) ** 2
                    m2 += w / (pt * pt)
    pp = JointTable.__new__(JointTable)._hold(("y", "z", "x"), out)
    return pp, target, eps2, m2


def nuisance_randomize(p: JointTable) -> JointTable:
    """Break the label-nuisance dependence of the (y, z, x) table ``p``:
    p(y) p(z) p(x | y, z), with p(x | y, z) read off ``p``.  Where a label
    and a nuisance with mass never meet (a family at rho 0 or 1), use
    ``DiscreteFamily.nuisance_randomized``."""
    p = p.marginal("y", "z", "x")
    return _randomized(p, _first_pass(p)[0])[0]


def _images(cells: Mapping, corruption: FiniteCorruption) -> tuple:
    """``(images, values)``: ``images`` maps each distinct covariate x (the
    last variable) of ``cells``, in cell order, to ``[(pd, t, j), ...]``
    over the noise values d of mass pd != 0, with ``t = corruption.fn(x,
    d)`` and ``values[j] == t``.  ``values`` lists each distinct corrupted
    value once, in order of first appearance, so a table over them is a
    list indexed by j, read without hashing t again.  Each public
    routine builds it once per call, so this is the only place
    ``corruption.fn`` is called and each (x, d) is pushed through it once;
    no table outlives its call."""
    noise = [(d, pd) for d, pd in corruption.delta_pmf.items() if pd != 0.0]
    fn = corruption.fn
    out: dict = {}
    index: dict = {}   # corrupted value -> j
    for key in cells:
        x = key[-1]
        if x not in out:
            row = out[x] = []
            for d, pd in noise:
                t = fn(x, d)
                row.append((pd, t, index.setdefault(t, len(index))))
    return out, list(index)


def _floor_error(t, y) -> UndefinedWeightError:
    """The error for p(y | t) below ``POSTERIOR_FLOOR``: the weight
    p(y) / p(y | t) is undefined."""
    return UndefinedWeightError(f"posterior for label {y!r} under corrupted value "
                                f"{t!r} is below {POSTERIOR_FLOOR}")


def _posterior_given_corrupted(yx: Mapping, images: tuple) -> list:
    """p(y | t) where t = corruption(x, delta) under the training joint,
    given as its (y, x) cells ``yx``, the corruption given as its
    :func:`_images` over those covariates: row j is
    ``{y: p(y | values[j])}``."""
    table, values = images
    joint = [{} for _ in values]   # row j: {y: p(y, values[j])}
    t_mass = [0.0] * len(values)
    for (y, x), q in yx.items():
        for pd, _t, j in table[x]:
            w = q * pd
            row = joint[j]
            row[y] = row.get(y, 0.0) + w
            t_mass[j] += w
    return [{y: q / mass for y, q in row.items()} for row, mass in zip(joint, t_mass)]


def biased_posterior(p: JointTable, conditioner) -> dict:
    """Posterior over y given the nuisance z or given a corrupted covariate,
    as ``JointTable.posterior`` gives it: each conditioning value with mass
    maps to ``{y: prob}``, and one without mass is absent.

    ``conditioner`` is either the variable name ``"z"`` (or any variable in
    the table) or a :class:`FiniteCorruption` applied to x.
    """
    if isinstance(conditioner, FiniteCorruption):
        yx = p.marginal("y", "x").cells
        images = _images(yx, conditioner)
        return dict(zip(images[1], _posterior_given_corrupted(yx, images)))
    return p.posterior("y", conditioner)


def _reweighted_by(yx: Mapping, y_m: Mapping, images: tuple, post: list) -> dict:
    """Unnormalized (y, x) measure p(y, x) p(y) / p(y | corrupted), with
    p(y, x) given as the cells ``yx``, p(y) as ``y_m`` keyed by label, the
    corruption as its :func:`_images` and p(y | t) as ``post``
    (:func:`_posterior_given_corrupted`).

    Sums to one exactly when every corrupted value leaves all labels
    possible; a leaky corruption loses mass instead.
    """
    table = images[0]
    out: dict = {}
    for key, q in yx.items():
        y, x = key
        py = y_m[y]
        total = 0.0
        for pd, t, j in table[x]:
            pt = post[j].get(y, 0.0)
            if pt < POSTERIOR_FLOOR:
                raise _floor_error(t, y)
            total += pd * py / pt * q
        out[key] = total
    return out


def corruption_randomize(p: JointTable, corruption: FiniteCorruption) -> JointTable:
    """Reweight the (y, x) joint by p(y) / p(y | corrupted covariate),
    self-normalized so the result is always a distribution."""
    yx = p.marginal("y", "x").cells
    y_m = {y: q for (y,), q in p.marginal("y").cells.items()}
    images = _images(yx, corruption)
    raw = _reweighted_by(yx, y_m, images, _posterior_given_corrupted(yx, images))
    total = math.fsum(raw.values())
    return JointTable(("y", "x"), {k: v / total for k, v in raw.items()})


def extend_with_corruption(p: JointTable, corruption: FiniteCorruption) -> JointTable:
    """Joint over (y, z, t) with t the corrupted covariate."""
    yzx = p.marginal("y", "z", "x").cells
    table = _images(yzx, corruption)[0]
    out: dict = {}
    for (y, z, x), q in yzx.items():
        for pd, t, _j in table[x]:
            out[(y, z, t)] = out.get((y, z, t), 0.0) + q * pd
    return JointTable(("y", "z", "t"), out)


@dataclass(frozen=True)
class BoundReport:
    """:func:`corruption_bound`'s ``epsilon``, ``moment`` and ``l1``, and
    whether ``l1 <= moment * epsilon + BOUND_SLACK`` (``holds``)."""

    epsilon: float
    moment: float
    l1: float
    holds: bool

    @property
    def excess(self) -> float:
        """How far ``l1`` lies above the slackened bound: ``<= 0`` iff ``holds``."""
        return -(self.moment * self.epsilon + BOUND_SLACK - self.l1)


def corruption_bound(p: JointTable, corruption: FiniteCorruption) -> BoundReport:
    """Exact L1 bound check for corruption-reweighting.

    epsilon^2 and the second moment are taken under the nuisance-randomized
    joint times the corruption noise.  The L1 distance compares the
    nuisance-randomized joint with the raw (unnormalized) reweighted
    measure, which is the quantity the Cauchy-Schwarz argument controls;
    the report checks ``l1 <= moment * epsilon + BOUND_SLACK``.
    """
    p = p.marginal("y", "z", "x")
    factors, y_m, yx = _first_pass(p)
    images = _images(yx, corruption)   # pp's covariates too
    post_t = _posterior_given_corrupted(yx, images)
    _pp, target, eps2, m2 = _randomized(p, factors, images[0], post_t)
    epsilon = math.sqrt(eps2)
    moment = math.sqrt(m2)
    # raw has a cell for each of p's (y, x) pairs, target for some of them
    raw = _reweighted_by(yx, y_m, images, post_t)
    l1 = math.fsum([abs(target.get(k, 0.0) - r) for k, r in raw.items()])
    return BoundReport(epsilon, moment, l1, l1 <= moment * epsilon + BOUND_SLACK)


def cond_indep_gap(p: JointTable, a: str, b: str, given) -> float:
    """max over events of |p(a,b|c) - p(a|c) p(b|c)|; ``given`` is one
    variable name or a tuple of names treated jointly."""
    names = (given,) if isinstance(given, str) else tuple(given)
    m = p.marginal(a, b, *names)
    c_mass: dict = {}
    ac: dict = {}
    bc: dict = {}
    for key, q in m.cells.items():
        va, vb, vc = key[0], key[1], key[2:]
        c_mass[vc] = c_mass.get(vc, 0.0) + q
        ac[(va, vc)] = ac.get((va, vc), 0.0) + q
        bc[(vb, vc)] = bc.get((vb, vc), 0.0) + q
    supports = m.supports
    gap = 0.0
    for vc, mass in c_mass.items():
        for va in supports[a]:
            pa = ac.get((va, vc), 0.0) / mass
            for vb in supports[b]:
                pb = bc.get((vb, vc), 0.0) / mass
                pab = m.cells.get((va, vb) + vc, 0.0) / mass
                gap = max(gap, abs(pab - pa * pb))
    return gap


def predictor_accuracy(p: JointTable, predictor) -> float:
    """Exact expected 0-1 accuracy of a total predictor x -> y.

    ``predictor`` is a mapping over the covariate support or a callable.
    """
    yx = p.marginal("y", "x")
    if isinstance(predictor, Mapping):
        table = predictor
        missing = [x for (_y, x) in yx.cells if x not in table]
        if missing:
            raise ValueError(f"predictor is not defined at {missing[0]!r}")
        fn = table.__getitem__
    else:
        fn = predictor
    total = 0.0
    for (y, x), q in yx.cells.items():
        if fn(x) == y:
            total += q
    return total


# Inputs of the two-coordinate flip-noise construction, ordered row-major.
BINARY_INPUTS = ((-1, -1), (-1, 1), (1, -1), (1, 1))


@dataclass(frozen=True)
class PredictorRow:
    index: int
    predictions: tuple
    acc_low: float   # relationship parameter 0 (nuisance anti-aligned)
    acc_high: float  # relationship parameter 1 (nuisance aligned)
    min_acc: float


def enumerate_binary_predictors() -> list:
    """Exact accuracies of all 16 binary predictors on the flip-noise family.

    Row ``k`` predicts -1 on input ``BINARY_INPUTS[j]`` iff bit ``3 - j`` of
    ``k`` is set, so row 0 is constantly +1 and row 15 constantly -1.
    """
    from .families import flip_noise_family

    fam = flip_noise_family(1)
    j_low = fam.joint(0.0).marginal("y", "x")
    j_high = fam.joint(1.0).marginal("y", "x")
    rows = []
    for k in range(16):
        preds = tuple(-1 if (k >> (3 - j)) & 1 else 1 for j in range(4))
        fmap = dict(zip(BINARY_INPUTS, preds))
        a0 = predictor_accuracy(j_low, fmap)
        a1 = predictor_accuracy(j_high, fmap)
        rows.append(PredictorRow(k, preds, a0, a1, min(a0, a1)))
    return rows
