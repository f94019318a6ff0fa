"""Exact finite-distribution engine.

Joint distributions over named discrete variables are stored sparsely and
manipulated without sampling, so distributional identities (factorizations,
conditional independences, reweighting bounds) can be checked to float
precision on small synthetic families.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import UndefinedWeightError

SUM_TOL = 1e-12
POSTERIOR_FLOOR = 1e-12
BOUND_SLACK = 1e-9        # float noise allowed above corruption_bound's bound


class JointTable:
    """Sparse exact pmf over a tuple of named variables.

    A table is immutable: its marginals are kept on first request, so
    ``cells`` must never be mutated.
    """

    __slots__ = ("variables", "cells", "_supports", "_marginals")

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
        total = math.fsum(clean.values())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.variables = vs
        self.cells = clean
        self._supports = None
        self._marginals = {}

    @property
    def supports(self) -> dict:
        """Sorted values of each variable that carry mass."""
        if self._supports is None:
            self._supports = {name: tuple(sorted({k[i] for k in self.cells}))
                              for i, name in enumerate(self.variables)}
        return self._supports

    def _indices(self, names):
        try:
            return [self.variables.index(n) for n in names]
        except ValueError:
            raise ValueError(f"unknown variable among {names!r}; have {self.variables}")

    def marginal(self, *names: str) -> "JointTable":
        if names == self.variables:
            return self
        kept = self._marginals.get(names)
        if kept is not None:
            return kept
        idx = self._indices(names)
        if len(idx) == 1:
            i, = idx
            project = lambda key: (key[i],)
        else:
            project = operator.itemgetter(*idx) if idx else lambda key: ()
        out: dict = {}
        for key, p in self.cells.items():
            sub = project(key)
            out[sub] = out.get(sub, 0.0) + p
        kept = self._marginals[names] = JointTable(names, out)
        return kept

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
        m = self.marginal(target, given)
        mass: dict = {}
        table: dict = {}
        for (tv, gv), p in m.cells.items():
            mass[gv] = mass.get(gv, 0.0) + p
            table.setdefault(gv, {})[tv] = p
        return {gv: {tv: p / mass[gv] for tv, p in row.items()} for gv, row in table.items()}

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
        return math.fsum(abs(self.cells.get(k, 0.0) - other.cells.get(k, 0.0)) for k in keys)


class Posterior:
    """Conditional table with an explicit zero-mass guard on lookup."""

    def __init__(self, table: dict):
        self._table = table

    def at(self, value) -> dict:
        if value not in self._table:
            raise UndefinedWeightError(f"conditioning value {value!r} has zero mass")
        return self._table[value]

    def items(self):
        return self._table.items()


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
        import itertools

        perms = list(itertools.permutations(range(k)))
        p = 1.0 / len(perms)
        fn = lambda x, perm: tuple(x[i] for i in perm)
        return cls(fn, {perm: p for perm in perms}, label)


def nuisance_randomize(p, rho: float = None) -> JointTable:
    """Break the label-nuisance dependence: p(y) p(z) p(x | y, z).

    Accepts either a joint table over (y, z, x) or a finite family together
    with its relationship parameter ``rho``.  The family form assembles the
    product from the structural conditionals, so it stays defined even at the
    degenerate extremes rho in {0, 1}, where some (y, z) pairs carry no joint
    mass and p(x | y, z) cannot be read off a table.
    """
    if hasattr(p, "x_given_z_xstar"):
        if rho is None:
            raise ValueError("the family form needs the relationship parameter rho")
        fam = p
        zgy = fam.z_given_y(rho)
        y_m = {}
        for (y, _xs), q in fam.y_xstar.items():
            y_m[y] = y_m.get(y, 0.0) + q
        z_m = {z: math.fsum(y_m[y] * zgy.get((z, y), 0.0) for y in fam.y_support)
               for z in fam.z_support}
        return fam.assemble({(z, y): z_m[z] for z in fam.z_support for y in fam.y_support})
    if rho is not None:
        raise ValueError("rho only applies to the family form")
    y_m = p.marginal("y").cells
    z_m = p.marginal("z").cells
    yz = p.marginal("y", "z").cells
    for (y,), qy in y_m.items():
        for (z,), qz in z_m.items():
            if qy * qz > 0.0 and (y, z) not in yz:
                raise ValueError(
                    f"pair (y={y!r}, z={z!r}) has zero joint mass, so "
                    "p(x | y, z) is undefined; pass the family and rho instead")
    out = {}
    for (y, z, x), q in p.marginal("y", "z", "x").cells.items():
        out[(y, z, x)] = y_m[(y,)] * z_m[(z,)] * q / yz[(y, z)]
    return JointTable(("y", "z", "x"), out)


def _images(cells: Mapping, corruption: FiniteCorruption) -> dict:
    """x -> ``((pd, t), ...)`` over the noise values d of mass pd != 0, with
    ``t = corruption.fn(x, d)``, for each distinct covariate x (the last
    variable) of ``cells`` in cell order.  Each public routine builds it once
    per call, so this is the only place ``corruption.fn`` is called and each
    (x, d) is pushed through it once; no table outlives its call."""
    noise = [(d, pd) for d, pd in corruption.delta_pmf.items() if pd != 0.0]
    out: dict = {}
    for key in cells:
        x = key[-1]
        if x not in out:
            out[x] = tuple((pd, corruption.fn(x, d)) for d, pd in noise)
    return out


def _pushforward(cells: Mapping, images: dict):
    """``(key, q, pd, t)`` for every cell and every ``(pd, t)`` of its
    covariate's entry in ``images`` (:func:`_images`); x is the last
    variable."""
    for key, q in cells.items():
        for pd, t in images[key[-1]]:
            yield key, q, pd, t


def _label_posterior(post: dict, t, y) -> float:
    """p(y | t) from ``post``, refused below ``POSTERIOR_FLOOR``."""
    pt = post.get(t, {}).get(y, 0.0)
    if pt < POSTERIOR_FLOOR:
        raise UndefinedWeightError(f"posterior for label {y!r} under corrupted value "
                                   f"{t!r} is below {POSTERIOR_FLOOR}")
    return pt


def _posterior_given_corrupted(p: JointTable, images: dict) -> dict:
    """p(y | t) where t = corruption(x, delta) under the training joint,
    the corruption given as its :func:`_images` over p's covariates."""
    joint_yt: dict = {}
    t_mass: dict = {}
    for (y, _x), q, pd, t in _pushforward(p.marginal("y", "x").cells, images):
        joint_yt[(y, t)] = joint_yt.get((y, t), 0.0) + q * pd
        t_mass[t] = t_mass.get(t, 0.0) + q * pd
    post: dict = {}
    for (y, t), q in joint_yt.items():
        post.setdefault(t, {})[y] = q / t_mass[t]
    return post


def biased_posterior(p: JointTable, conditioner) -> Posterior:
    """Posterior over y given the nuisance z or given a corrupted covariate.

    ``conditioner`` is either the variable name ``"z"`` (or any variable in
    the table) or a :class:`FiniteCorruption` applied to x.
    """
    if isinstance(conditioner, FiniteCorruption):
        yx = p.marginal("y", "x").cells
        return Posterior(_posterior_given_corrupted(p, _images(yx, conditioner)))
    return Posterior(p.posterior("y", conditioner))


def _reweighted_measure(p: JointTable, corruption: FiniteCorruption) -> dict:
    """Unnormalized (y, x) measure p(y, x) p(y) / p(y | corrupted).

    Sums to one exactly when every corrupted value leaves all labels
    possible; a leaky corruption loses mass instead.
    """
    images = _images(p.marginal("y", "x").cells, corruption)
    return _reweighted_by(p, images, _posterior_given_corrupted(p, images))


def _reweighted_by(p: JointTable, images: dict, post: dict) -> dict:
    """:func:`_reweighted_measure` given the corruption's :func:`_images`
    and p(y | t) as ``post``."""
    y_m = p.marginal("y").cells
    out: dict = {}
    for (y, x), q, pd, t in _pushforward(p.marginal("y", "x").cells, images):
        out[(y, x)] = out.get((y, x), 0.0) + pd * y_m[(y,)] / _label_posterior(post, t, y) * q
    return out


def corruption_randomize(p: JointTable, corruption: FiniteCorruption) -> JointTable:
    """Reweight the (y, x) joint by p(y) / p(y | corrupted covariate),
    self-normalized so the result is always a distribution."""
    raw = _reweighted_measure(p, corruption)
    total = math.fsum(raw.values())
    return JointTable(("y", "x"), {k: v / total for k, v in raw.items()})


def extend_with_corruption(p: JointTable, corruption: FiniteCorruption) -> JointTable:
    """Joint over (y, z, t) with t the corrupted covariate."""
    yzx = p.marginal("y", "z", "x").cells
    out: dict = {}
    for (y, z, _x), q, pd, t in _pushforward(yzx, _images(yzx, corruption)):
        out[(y, z, t)] = out.get((y, z, t), 0.0) + q * pd
    return JointTable(("y", "z", "t"), out)


@dataclass(frozen=True)
class BoundReport:
    epsilon: float
    moment: float
    l1: float
    holds: bool


def corruption_bound(p: JointTable, corruption: FiniteCorruption) -> BoundReport:
    """Exact L1 bound check for corruption-reweighting.

    epsilon^2 and the second moment are taken under the nuisance-randomized
    joint times the corruption noise.  The L1 distance compares the
    nuisance-randomized joint with the raw (unnormalized) reweighted
    measure, which is the quantity the Cauchy-Schwarz argument controls;
    the report checks ``l1 <= moment * epsilon + BOUND_SLACK``.
    """
    pp = nuisance_randomize(p)
    images = _images(p.marginal("y", "x").cells, corruption)   # pp's covariates too
    post_t = _posterior_given_corrupted(p, images)
    post_z = p.posterior("y", "z")
    eps2 = 0.0
    m2 = 0.0
    for (y, z, _x), q, pd, t in _pushforward(pp.cells, images):
        pt = _label_posterior(post_t, t, y)
        eps2 += q * pd * (pt - post_z[z].get(y, 0.0)) ** 2
        m2 += q * pd / (pt * pt)
    epsilon = math.sqrt(eps2)
    moment = math.sqrt(m2)
    target = pp.marginal("y", "x").cells
    raw = _reweighted_by(p, images, post_t)
    keys = set(target) | set(raw)
    l1 = math.fsum(abs(target.get(k, 0.0) - raw.get(k, 0.0)) for k in keys)
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
    gap = 0.0
    for vc, mass in c_mass.items():
        for va in m.supports[a]:
            pa = ac.get((va, vc), 0.0) / mass
            for vb in m.supports[b]:
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
