"""Command line front end.

Exit codes: 0 success, 1 a verification check failed, 2 bad usage or
configuration (bad numbers, damaged dataset or model files, non-finite
vector data, a hyperparameter the method does not take, ``scam
--aux-epochs 0`` for a method that fits its biased model first, one file
named by both ``report --out`` and ``--per-seed``), 3 runtime failure
(diverged training, unreadable files or unwritable output paths, undefined
reweighting, a request too large to allocate, a ``report`` sweep with a
failed (method, seed) cell).  An oversized count (``gen --n``,
``--hidden``, ``--buckets``, a dataset's class count) is a bad number,
exit 2, when numpy cannot index an array that large (about 10**30), and
exit 3 when numpy can index it but the machine cannot hold it (about
10**14).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

from .corruptions import CorruptionSpec, Grid, SentencePair, apply_all
from .errors import ConfigError, TrainingError, UndefinedWeightError
from .harness import (
    METHODS,
    PARAM_DEFAULTS,
    TASKS,
    MethodSpec,
    evaluate,
    generate_task,
    load_dataset,
    load_model,
    predictor_table_csv,
    run_experiment,
    run_method,
    save_dataset,
    save_model,
    verify_theory,
)
from .learner import FeatureSpec, TrainConfig
from .rng import derive_seed
from .scams import FeatureStore


def _training_store(args) -> FeatureStore:
    """The store of the ``--in`` dataset, with the features its covariates
    take: flattened grids, bag-of-n-grams (``--ngram``, ``--buckets``) or
    raw vectors."""
    ds = load_dataset(args.src)
    first = ds.covariates[0]
    if isinstance(first, Grid):
        fs = FeatureSpec("flatten_grid")
    elif isinstance(first, SentencePair):
        fs = FeatureSpec("bag_of_ngrams", ngram=args.ngram, buckets=args.buckets)
    else:
        fs = FeatureSpec("raw_vector")
    return FeatureStore(ds, fs)


def _cmd_gen(args) -> int:
    ds = generate_task(args.task, args.rho, args.n, args.seed, args.flip)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} {args.task} examples to {args.out}")
    return 0


def _cmd_corrupt(args) -> int:
    ds = load_dataset(args.src)
    spec = CorruptionSpec(args.kind, args.param, args.seed)
    source = ds.provenance
    if "corruption" in source:   # a chained corruption keeps the earlier record whole
        source = {"source": source}
    # rebound, so the input dataset is let go before the output is saved
    ds = replace(ds, covariates=apply_all(spec, ds.covariates),
                 provenance=source | {"corruption": spec.label, "corruption_seed": spec.seed})
    save_dataset(ds, args.out)
    print(f"applied {spec.label} to {len(ds)} examples -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    store = _training_store(args)
    cfg = TrainConfig(args.epochs, args.batch, args.lr, args.wd, seed=args.seed)
    model, info = run_method(MethodSpec("erm"), store, cfg, cfg, args.hidden)
    save_model(model, args.out)
    if info["losses"]:
        print(f"trained {args.epochs} epochs, final loss {info['losses'][-1]:.4f} -> {args.out}")
    else:
        print(f"no epoch ran: saved the initial model -> {args.out}")
    return 0


# the methods that fit their biased model for --aux-epochs before the main
# model; poe and dfl train theirs on the main schedule
_AUX_TRAINED = ("nurd", "jtt")


def _cmd_scam(args) -> int:
    if args.aux_epochs == 0 and args.method in _AUX_TRAINED:
        # an untrained biased model would turn nurd into ERM and jtt into
        # upsampling one class
        raise ConfigError(f"{args.method} needs --aux-epochs >= 1")
    store = _training_store(args)
    corruption = CorruptionSpec(args.kind, args.param, args.corruption_seed)
    method = MethodSpec(args.method, corruption, lambda_up=args.lambda_up,
                        gamma=args.gamma)
    cfg_main = TrainConfig(args.epochs, args.batch, args.lr, args.wd, seed=args.seed)
    cfg_aux = TrainConfig(args.aux_epochs, args.batch, args.aux_lr, args.wd,
                          seed=derive_seed(args.seed, 11))
    model, _ = run_method(method, store, cfg_main, cfg_aux, args.hidden)
    save_model(model, args.out)
    print(f"{method.label} trained on {len(store.dataset)} examples -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    ds = load_dataset(args.src)
    model = load_model(args.model)
    if model.feature_spec is None:
        raise ConfigError(f"model file {args.model} records no feature spec")
    rec = evaluate(model, ds, model.feature_spec)
    if args.as_json:
        out = {"accuracy": rec.accuracy, "n": rec.n}
        if rec.worst_group is not None:
            out["worst_group"] = rec.worst_group
            out["groups"] = [
                {"group": g, "accuracy": a, "n": c} for g, a, c in rec.group_accuracies
            ]
        print(json.dumps(out, indent=2))
    else:
        print(f"accuracy {rec.accuracy:.4f} on {rec.n} examples")
        if rec.worst_group is not None:
            print(f"worst-group accuracy {rec.worst_group:.4f}")
            for g, a, c in rec.group_accuracies:
                print(f"  group {g}: {a:.4f} ({c} examples)")
    return 0


@contextmanager
def _output(path):
    """``path`` (or None) opened for writing before the work that fills it,
    so an unwritable path fails before that work is done; the file is
    removed again if the work raises."""
    if path is None:
        yield None
        return
    with open(path, "w") as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            os.unlink(path)
            raise


def _cmd_verify(args) -> int:
    with _output(args.table) as table:
        report = verify_theory(args.fuzz, args.seed)
        for line in report.lines():
            print(line)
        if table:
            table.write(predictor_table_csv())
    if table:
        print(f"wrote predictor table to {args.table}")
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    if args.per_seed and os.path.realpath(args.out) == os.path.realpath(args.per_seed):
        raise ConfigError("--out and --per-seed name the same file")
    config, methods = TASKS[args.task].preset(tuple(range(args.seeds)))
    with _output(args.out) as out, _output(args.per_seed) as per_seed:
        result = run_experiment(config, methods)
        out.write(result.to_csv())
        if per_seed:
            per_seed.write(result.per_seed_csv())
    summ = result.summary()
    for m in methods:
        acc = summ[m.label]["test_flipped"].get("accuracy")
        if acc is None:
            print(f"{m.label}: no completed seeds")
        else:
            mean, sd, se, k = acc
            print(f"{m.label}: flipped-test accuracy {mean:.3f} "
                  f"(stddev {sd:.3f}, stderr {se:.3f}, {k} seeds)")
    failures = [(m.label, e) for m in methods
                for e in result.outcomes[m.label].errors]
    for label, (seed, msg) in failures:
        print(f"warning: {label} seed {seed} failed: {msg}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 3 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="semcorrupt",
                                description="semantic corruptions toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--task", choices=list(TASKS), required=True)
    g.add_argument("--rho", type=float, required=True,
                   help="label-nuisance relationship strength in [0, 1]")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--flip", action="store_true",
                   help="invert the label-nuisance relationship")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("corrupt", help="apply a corruption to a saved dataset")
    c.add_argument("--in", dest="src", required=True)
    c.add_argument("--kind", required=True)
    c.add_argument("--param", type=float, default=None)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_corrupt)

    t = sub.add_parser("train", help="train a plain ERM model")
    _add_train_args(t)
    t.set_defaults(func=_cmd_train)

    s = sub.add_parser("scam", help="train a debiasing method")
    _add_train_args(s)
    s.add_argument("--method", choices=[name for name, m in METHODS.items() if m.routine],
                   required=True)
    s.add_argument("--kind", required=True, help="corruption kind")
    s.add_argument("--param", type=float, default=None)
    s.add_argument("--corruption-seed", type=int, default=0)
    s.add_argument("--lambda-up", type=int, default=None,
                   help=f"jtt only (default {PARAM_DEFAULTS['lambda_up']})")
    s.add_argument("--gamma", type=float, default=None,
                   help=f"dfl only (default {PARAM_DEFAULTS['gamma']:g})")
    s.add_argument("--aux-epochs", type=int, default=30,
                   help="epochs of the biased model that nurd and jtt fit first "
                        "(>= 1); poe and dfl train theirs on the main schedule "
                        "and never read it")
    s.add_argument("--aux-lr", type=float, default=0.1)
    s.set_defaults(func=_cmd_scam)

    e = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    e.add_argument("--model", required=True)
    e.add_argument("--in", dest="src", required=True)
    e.add_argument("--json", dest="as_json", action="store_true")
    e.set_defaults(func=_cmd_eval)

    v = sub.add_parser("verify-theory", help="run the exact-distribution checks")
    v.add_argument("--fuzz", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--table", default=None,
                   help="also write the 16-predictor table as CSV here")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("report", help="run a desk benchmark and write CSV")
    r.add_argument("--task", choices=[t for t in TASKS if TASKS[t].preset], required=True)
    r.add_argument("--seeds", type=int, default=5, help="number of seeds")
    r.add_argument("--out", required=True)
    r.add_argument("--per-seed", default=None)
    r.set_defaults(func=_cmd_report)
    return p


def _add_train_args(sp) -> None:
    sp.add_argument("--in", dest="src", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--epochs", type=int, default=30)
    sp.add_argument("--batch", type=int, default=64)
    sp.add_argument("--lr", type=float, default=0.1)
    sp.add_argument("--wd", type=float, default=0.0)
    sp.add_argument("--hidden", type=int, default=0)
    sp.add_argument("--ngram", type=int, default=2)
    sp.add_argument("--buckets", type=int, default=64)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrainingError, UndefinedWeightError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OverflowError) as exc:
        # dispatch errors (feature/covariate kind mismatches), unindexable counts
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
