"""The reachability ledger: every ``def`` in ``src/`` that the product's
workflows never enter, each with its one fate.

    python tools/reach.py

A profiler (``sys.setprofile``) is started before ``semcorrupt`` is
imported, so functions that run at import count as entered, and
``harness._forked_map`` is replaced by a serial map, so the code its
workers would run is seen (``_forked_map`` itself counts as entered).
Then these workflows run, the CLI ones in a temporary directory:

* both desk sweeps at seed 0;
* ``verify_theory(200, 7)`` and ``predictor_table_csv()``;
* ``gen`` for both tasks, and ``corrupt`` with every kind the task
  accepts (parameter 1 where the kind takes one);
* ``train`` on both tasks, and once more with ``--hidden 2``;
* ``scam`` for all four methods on both tasks, and ``eval --json``;
* ``report --task nli --seeds 1 --per-seed``;
* ``verify-theory --fuzz 20 --table``.

Every ``def`` (found with ``ast``) whose code was never entered is listed
with its fate from :data:`FATES`.  Exit code 1 when an unreached ``def``
has no fate, or a fate names a ``def`` that was entered or no longer
exists; 0 otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "semcorrupt"

TRACER = "pinned by perfbench/ until ROADMAP item 2"


# "module.qualname" of each def no workflow enters -> its one fate
FATES = {
    # named in perfbench/tracing.py's TRACED, or patched by its counting round
    "corruptions.patch_randomize": TRACER,
    "corruptions.roi_mask": TRACER,
    "corruptions.freq_filter": TRACER,
    "corruptions.intensity_filter": TRACER,
    "corruptions.gauss_noise": TRACER,
    "corruptions.ngram_randomize": TRACER,
    "corruptions.coordinate_mask": TRACER,
    "learner.accuracy": TRACER,
    "scams.corrupted_features": TRACER,
    "scams.build_biased_model": TRACER,
    "scams.select_corruption": TRACER,
    "harness.select_corruption_for": TRACER,
    "exact.biased_posterior": TRACER,
    "exact.corruption_randomize": TRACER,
    "exact.extend_with_corruption": TRACER,
    "exact.JointTable.prob": TRACER,
    "exact.JointTable.posterior": TRACER,
    "exact.JointTable.extend_independent": TRACER,
    "exact.JointTable.l1": TRACER,
    "families.sample_family": TRACER,
    "rng.Stream.shuffle": TRACER,
    # helpers that only the pinned names above reach (the single-example
    # grid kinds, apply on one sentence pair, the corruption search)
    "corruptions._one_row": TRACER,
    "corruptions._shuffle_sentences": TRACER,
    "harness.select_corruption_for.score": TRACER,
    # the family form of the nuisance-randomized joint, an exact target
    "families.DiscreteFamily.nuisance_randomized":
        "waiting for a product caller from ROADMAP item 6",
    "exact._floor_error": "builds the error that a failed check raises; no working run "
                          "reaches it",
}


def _defs() -> dict:
    """``(file, first line) -> "module.qualname"`` for every ``def`` in the
    package, the first line being that of its first decorator, as in its
    code object's ``co_firstlineno``."""
    found = {}

    def walk(node, module: str, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                found[(path, first)] = f"{module}.{name}"
                walk(child, module, f"{name}.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.", path)
            else:
                walk(child, module, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "", path)
    return found


def _cli(*argv: str) -> None:
    from semcorrupt import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"reach: semcorrupt {' '.join(argv)} exited {code}")


def _workflows(tmp: str) -> None:
    from semcorrupt import harness
    from semcorrupt.corruptions import KINDS
    from semcorrupt.harness import load_dataset

    for experiment in (harness.desk_image_experiment, harness.desk_nli_experiment):
        harness.run_experiment(*experiment((0,)))
    harness.verify_theory(200, 7)
    harness.predictor_table_csv()

    scam_kinds = {"image": ("patch_randomize", "8"), "nli": ("ngram_randomize", "1")}
    for task, (kind, param) in scam_kinds.items():
        data = os.path.join(tmp, task)
        _cli("gen", "--task", task, "--rho", "0.9", "--n", "200", "--seed", "0",
             "--out", data)
        first = load_dataset(data).covariates[0]
        for name, entry in KINDS.items():
            if isinstance(first, entry.accepts):
                given = () if entry.check is None else ("--param", "1")
                _cli("corrupt", "--in", data, "--kind", name, *given, "--seed", "0",
                     "--out", os.path.join(tmp, f"{task}-{name}"))
        common = ("--in", data, "--seed", "0", "--epochs", "2")
        models = [os.path.join(tmp, f"{task}-erm.bin")]
        _cli("train", *common, "--out", models[0])
        for method in ("nurd", "jtt", "poe", "dfl"):
            models.append(os.path.join(tmp, f"{task}-{method}.bin"))
            _cli("scam", *common, "--aux-epochs", "2", "--method", method,
                 "--kind", kind, "--param", param, "--out", models[-1])
        for model in models:
            _cli("eval", "--model", model, "--in", data, "--json")
    _cli("train", "--in", os.path.join(tmp, "image"), "--seed", "0", "--epochs", "2",
         "--hidden", "2", "--out", os.path.join(tmp, "hidden.bin"))
    _cli("report", "--task", "nli", "--seeds", "1", "--out",
         os.path.join(tmp, "nli.csv"), "--per-seed", os.path.join(tmp, "nli-seeds.csv"))
    _cli("verify-theory", "--fuzz", "20", "--table", os.path.join(tmp, "table.csv"))


def main() -> int:
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    sys.setprofile(profile)
    try:
        from semcorrupt import harness

        entered.add(harness._forked_map.__code__)
        harness._forked_map = lambda fn, items, _died: [fn(item) for item in items]
        with tempfile.TemporaryDirectory() as tmp:
            _workflows(tmp)
    finally:
        sys.setprofile(None)

    defs = _defs()
    reached = {defs.get((Path(code.co_filename).resolve(), code.co_firstlineno))
               for code in entered}
    names = set(defs.values())
    unreached = sorted(names - reached)
    errors = [f"{name}: never entered and has no fate" for name in unreached
              if name not in FATES]
    errors += [f"{name}: has a fate but was entered" for name in sorted(set(FATES) & reached)]
    errors += [f"{name}: has a fate but no such def" for name in sorted(set(FATES) - names)]
    print(f"reach: {len(names)} defs in src/, {len(unreached)} never entered")
    for name in unreached:
        print(f"  {name}: {FATES.get(name, 'NO FATE')}")
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
