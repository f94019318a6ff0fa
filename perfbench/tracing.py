"""Per-layer tracing from outside the package.

Two passes, each a context manager that patches module attributes and
restores them on exit:

* :class:`SpanTracer` wraps the public functions of every layer and records
  one span (name, start, end, parent) per call in flat in-memory arrays.
  Times come from these spans.
* :class:`CallCounter` wraps the functions whose counts need their
  arguments (rows, distinct inputs) or whose own call overhead would distort
  a timing (``derive_seed``, ``Stream.shuffle``).  Counts come from here.

A function is patched in its defining module and in every module that
imported it by name, so ``from .learner import featurize`` call sites, and
the benchmark's own calls, see the wrapper too.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "semcorrupt"

# layer -> traced function names; "Class.method" patches the class attribute
TRACED = {
    "families": (
        "synthetic_image_task", "synthetic_nli_task", "sample_family",
        "flip_noise_family", "negated_coordinate_family", "xor_sign_family",
        "DiscreteFamily.joint",
    ),
    "corruptions": (
        "apply", "patch_randomize", "roi_mask", "freq_filter",
        "intensity_filter", "rand_crop", "gauss_noise", "ngram_randomize",
        "premise_mask", "coordinate_mask",
    ),
    "learner": (
        "featurize", "train", "minibatch_plan", "ce_loss_grad", "poe_loss_grad",
        "dfl_loss_grad", "predict", "predict_proba", "accuracy",
    ),
    "scams": (
        "corrupted_features", "build_biased_model", "nurd_weights", "run_nurd",
        "jtt_error_set", "run_jtt", "run_poe", "run_dfl", "select_corruption",
        "BiasedModel.class_probs",
    ),
    "harness": (
        "evaluate", "run_method", "run_experiment", "generate_task",
        "select_corruption_for", "verify_theory", "check_predictor_table",
        "check_stable_argmax", "check_matched_joints", "check_zero_accuracy",
        "check_exact_corruptions", "check_factorization", "fuzz_bound_checks",
        "predictor_table_csv", "save_model", "load_model", "save_dataset",
        "load_dataset", "ExperimentResult.to_csv", "ExperimentResult.per_seed_csv",
    ),
    "exact": (
        "corruption_bound", "nuisance_randomize", "biased_posterior",
        "corruption_randomize", "extend_with_corruption", "cond_indep_gap",
        "predictor_accuracy", "enumerate_binary_predictors",
        "JointTable.marginal", "JointTable.posterior", "JointTable.prob",
        "JointTable.extend_independent", "JointTable.with_derived", "JointTable.l1",
    ),
    "cli": (
        "main", "_cmd_gen", "_cmd_corrupt", "_cmd_train", "_cmd_scam",
        "_cmd_eval", "_cmd_verify", "_cmd_report",
    ),
}

CORRUPTION_KINDS = ("patch_randomize", "roi_mask", "freq_filter",
                    "intensity_filter", "ngram_randomize")
GRAD_FUNCTIONS = ("learner.ce_loss_grad", "learner.poe_loss_grad",
                  "learner.dfl_loss_grad")


class _Patcher:
    """Replace attributes and put the originals back on exit."""

    def __init__(self):
        self._saved = []

    def patch_function(self, module_name: str, attr: str, make_wrapper) -> None:
        """Wrap ``module.attr`` in its module and wherever it was imported
        by name."""
        target = sys.modules[f"{PACKAGE}.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(target, cls_name)
            original = cls.__dict__[meth]
            self._set(cls, meth, make_wrapper(original))
            return
        original = getattr(target, attr)
        wrapper = make_wrapper(original)
        # every importer, the benchmark's own workloads module included
        for mod in list(sys.modules.values()):
            if getattr(mod, "__dict__", {}).get(attr) is original:
                self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class SpanTracer:
    """Record one span per call to every function in :data:`TRACED`."""

    def __init__(self):
        self.names = []                 # span name id -> "layer.function"
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []
        self._patcher = _Patcher()

    def __enter__(self):
        for layer, attrs in TRACED.items():
            for attr in attrs:
                self._patcher.patch_function(layer, attr, self._wrapper_for(f"{layer}.{attr}"))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    def _wrapper_for(self, name: str):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(starts)
                ids.append(nid)
                parents.append(stack[-1] if stack else -1)
                starts.append(0.0)
                ends.append(0.0)
                stack.append(idx)
                starts[idx] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
            return traced

        return make

    def arrays(self):
        return (np.frombuffer(self.name_ids, dtype=np.int32).copy(),
                np.frombuffer(self.parents, dtype=np.int32).copy(),
                np.frombuffer(self.starts, dtype=np.float64).copy(),
                np.frombuffer(self.ends, dtype=np.float64).copy())

    def save(self, path: str) -> None:
        ids, parents, starts, ends = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_ids=ids,
                            parents=parents, starts=starts, ends=ends)

    def times(self) -> dict:
        """Timing metrics derived from the recorded spans."""
        ids, parents, starts, ends = self.arrays()
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child

        def mask(*wanted):
            return np.isin(ids, [self.names.index(w) for w in wanted])

        def inclusive(*wanted):
            """Duration and count of the outermost calls among ``wanted``."""
            sel = mask(*wanted)
            nested = np.zeros(len(ids), bool)
            anc = parents.copy()
            while (anc >= 0).any():
                live = anc >= 0
                nested[live] |= sel[anc[live]]
                anc[live] = parents[anc[live]]
            outer = sel & ~nested
            return float(dur[outer].sum()), int(outer.sum())

        def layer_self(layer):
            return float(self_time[mask(*(f"{layer}.{a}" for a in TRACED[layer]))].sum())

        out = {f"{layer}.self_s": layer_self(layer) for layer in TRACED}
        out["families.generate_s"] = inclusive("families.synthetic_image_task",
                                               "families.synthetic_nli_task",
                                               "families.sample_family")[0]
        out["families.joint_s"] = inclusive("families.DiscreteFamily.joint")[0]
        out["corruptions.apply_s"], out["corruptions.apply_calls"] = inclusive("corruptions.apply")
        for kind in CORRUPTION_KINDS:
            out[f"corruptions.{kind}_s"] = inclusive(f"corruptions.{kind}")[0]
        out["learner.featurize_s"] = inclusive("learner.featurize")[0]
        out["learner.grad_s"], out["learner.sgd_steps"] = inclusive(*GRAD_FUNCTIONS)
        out["learner.train_self_s"] = float(self_time[mask("learner.train")].sum())
        out["learner.minibatch_plan_s"] = inclusive("learner.minibatch_plan")[0]
        out["learner.predict_s"] = inclusive("learner.predict", "learner.predict_proba")[0]
        for method in ("nurd", "jtt", "poe", "dfl"):
            out[f"scams.run_{method}_s"] = inclusive(f"scams.run_{method}")[0]
        for fn in ("evaluate", "save_dataset", "load_dataset", "save_model", "load_model"):
            out[f"harness.{fn}_s"] = inclusive(f"harness.{fn}")[0]
        out["exact.corruption_bound_s"], out["exact.corruption_bound_calls"] = \
            inclusive("exact.corruption_bound")
        for cmd in ("gen", "corrupt", "train", "scam", "eval"):
            out[f"cli.{cmd}_s"] = inclusive(f"cli._cmd_{cmd}")[0]
        return out


def content_key(cov) -> int:
    """Hash of a covariate's content (grids by their bytes)."""
    values = getattr(cov, "values", None)
    if isinstance(values, np.ndarray):
        return hash(hashlib.blake2b(values.tobytes(), digest_size=16).digest())
    return hash(cov)


class CallCounter:
    """Argument-level counts: rows, examples, distinct inputs, RNG use."""

    def __init__(self):
        self.counts = dict.fromkeys(
            ("derive_seed", "shuffle_items", "examples", "apply", "featurize_rows",
             "minibatch_plan", "evaluate_rows", "tables", "table_cells"), 0)
        self.distinct = {"apply": set(), "featurize": set(), "minibatch_plan": set()}
        self._patcher = _Patcher()

    def __enter__(self):
        counts, distinct = self.counts, self.distinct

        def derive_seed(fn):
            def counted(*parts):
                counts["derive_seed"] += 1
                return fn(*parts)
            return counted

        def shuffle(fn):
            def counted(stream, items):
                counts["shuffle_items"] += len(items)
                return fn(stream, items)
            return counted

        def generator(fn):
            # synthetic_*_task(rho, n, seed, flip) and sample_family(family, rho, n, seed)
            n_at = 2 if fn.__name__ == "sample_family" else 1

            def counted(*args, **kwargs):
                counts["examples"] += kwargs["n"] if "n" in kwargs else args[n_at]
                return fn(*args, **kwargs)
            return counted

        def apply(fn):
            def counted(spec, covariate, example_index):
                counts["apply"] += 1
                distinct["apply"].add(hash((spec, example_index, content_key(covariate))))
                return fn(spec, covariate, example_index)
            return counted

        def featurize(fn):
            def counted(spec, covariates):
                covariates = list(covariates)
                counts["featurize_rows"] += len(covariates)
                distinct["featurize"].update(hash((spec, content_key(c))) for c in covariates)
                return fn(spec, covariates)
            return counted

        def minibatch_plan(fn):
            def counted(*args, **kwargs):
                counts["minibatch_plan"] += 1
                distinct["minibatch_plan"].add((args, tuple(sorted(kwargs.items()))))
                return fn(*args, **kwargs)
            return counted

        def evaluate(fn):
            def counted(model, dataset, feature_spec):
                counts["evaluate_rows"] += len(dataset)
                return fn(model, dataset, feature_spec)
            return counted

        def table_init(fn):
            def counted(table, variables, cells):
                fn(table, variables, cells)
                counts["tables"] += 1
                counts["table_cells"] += len(table.cells)
            return counted

        p = self._patcher
        p.patch_function("rng", "derive_seed", derive_seed)
        p.patch_function("rng", "Stream.shuffle", shuffle)
        for name in ("synthetic_image_task", "synthetic_nli_task", "sample_family"):
            p.patch_function("families", name, generator)
        p.patch_function("corruptions", "apply", apply)
        p.patch_function("learner", "featurize", featurize)
        p.patch_function("learner", "minibatch_plan", minibatch_plan)
        p.patch_function("harness", "evaluate", evaluate)
        p.patch_function("exact", "JointTable.__init__", table_init)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    def metrics(self) -> dict:
        c, d = self.counts, self.distinct

        def ratio(distinct, calls):
            return len(distinct) / calls if calls else 1.0

        return {
            "rng.derive_seed_calls": c["derive_seed"],
            "rng.shuffle_items": c["shuffle_items"],
            "families.examples": c["examples"],
            "corruptions.distinct_ratio": ratio(d["apply"], c["apply"]),
            "learner.featurize_rows": c["featurize_rows"],
            "learner.featurize_distinct_ratio": ratio(d["featurize"], c["featurize_rows"]),
            "learner.minibatch_plan_distinct_ratio": ratio(d["minibatch_plan"],
                                                           c["minibatch_plan"]),
            "harness.evaluate_rows": c["evaluate_rows"],
            "exact.tables": c["tables"],
            "exact.table_cells": c["table_cells"],
        }
