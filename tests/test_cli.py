"""End-to-end tests for the command line front end.

Commands run in-process through ``main(argv)`` so exit codes and output can
be asserted directly; one subprocess test covers module invocation.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from semcorrupt import cli, harness
from semcorrupt.cli import main
from semcorrupt.corruptions import CorruptionSpec
from semcorrupt.errors import TrainingError
from semcorrupt.families import (
    Dataset,
    negated_coordinate_family,
    sample_family,
    xor_sign_family,
)
from semcorrupt.harness import (
    MethodSpec,
    desk_nli_experiment,
    evaluate,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from semcorrupt.learner import FeatureSpec, LinearModel


NR1 = CorruptionSpec("ngram_randomize", 1, 0)


@pytest.fixture(scope="module")
def image_dir(tmp_path_factory):
    """A small saved image dataset shared by the pipeline tests."""
    path = str(tmp_path_factory.mktemp("gen") / "img")
    assert main(["gen", "--task", "image", "--rho", "0.9", "--n", "120",
                 "--seed", "3", "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def nli_dir(tmp_path_factory):
    """A small saved NLI dataset for the bag-of-n-gram count tests."""
    path = str(tmp_path_factory.mktemp("gen") / "nli")
    assert main(["gen", "--task", "nli", "--rho", "0.9", "--n", "40",
                 "--seed", "3", "--out", path]) == 0
    return path


class TestGen:
    def test_writes_loadable_dataset(self, image_dir, capsys):
        ds = load_dataset(image_dir)
        assert len(ds) == 120
        assert ds.provenance["task"] == "image"
        assert ds.groups is not None

    def test_generation_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["gen", "--task", "nli", "--rho", "0.8", "--n", "40",
                "--seed", "9", "--out"]
        assert main(args + [a]) == 0
        assert main(args + [b]) == 0
        for name in ("meta.json", "data.bin", "labels.csv"):
            with open(f"{a}/{name}", "rb") as fa, open(f"{b}/{name}", "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_bad_rho_is_config_error(self, tmp_path, capsys):
        code = main(["gen", "--task", "image", "--rho", "1.5", "--n", "10",
                     "--seed", "0", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_task_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--task", "tabular", "--rho", "0.5", "--n", "10",
                  "--seed", "0", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_task_choices_come_from_the_table(self):
        """``gen`` takes every TASKS entry, ``report`` every one with a preset."""
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
        choices = {name: next(a.choices for a in sub._actions if a.dest == "task")
                   for name, sub in commands.choices.items() if name in ("gen", "report")}
        assert choices["gen"] == list(harness.TASKS)
        assert choices["report"] == [t for t, task in harness.TASKS.items() if task.preset]


class TestPipeline:
    def test_corrupt_train_eval_flow(self, image_dir, tmp_path, capsys):
        corrupted = str(tmp_path / "corrupted")
        assert main(["corrupt", "--in", image_dir, "--kind", "patch_randomize",
                     "--param", "8", "--seed", "7", "--out", corrupted]) == 0
        src = load_dataset(image_dir)
        out = load_dataset(corrupted)
        assert np.array_equal(out.labels, src.labels)
        assert not np.array_equal(out.covariates[0].values,
                                  src.covariates[0].values)
        assert out.provenance["corruption"] == "pr8"

        model_path = str(tmp_path / "model.bin")
        assert main(["train", "--in", corrupted, "--out", model_path,
                     "--seed", "1", "--epochs", "3"]) == 0
        assert "final loss" in capsys.readouterr().out

        assert main(["eval", "--model", model_path, "--in", corrupted,
                     "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["n"] == 120
        assert 0.0 <= rec["worst_group"] <= rec["accuracy"] <= 1.0
        assert {"group", "accuracy", "n"} <= set(rec["groups"][0])
        assert sum(g["n"] for g in rec["groups"]) == 120

    def test_chained_corrupt_keeps_earlier_provenance(self, image_dir, tmp_path):
        first, second = str(tmp_path / "pr8"), str(tmp_path / "ff30")
        assert main(["corrupt", "--in", image_dir, "--kind", "patch_randomize",
                     "--param", "8", "--seed", "7", "--out", first]) == 0
        assert main(["corrupt", "--in", first, "--kind", "freq_filter",
                     "--param", "30", "--seed", "3", "--out", second]) == 0
        once = load_dataset(first).provenance
        assert once == load_dataset(image_dir).provenance | {"corruption": "pr8",
                                                             "corruption_seed": 7}
        assert load_dataset(second).provenance == {"source": once, "corruption": "ff30",
                                                   "corruption_seed": 3}

    def test_eval_human_readable(self, image_dir, tmp_path, capsys):
        model_path = str(tmp_path / "model.bin")
        assert main(["train", "--in", image_dir, "--out", model_path,
                     "--seed", "1", "--epochs", "2"]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", model_path, "--in", image_dir]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "worst-group" in out

    def test_scam_command_trains_and_saves(self, image_dir, tmp_path, capsys):
        model_path = str(tmp_path / "nurd.bin")
        code = main(["scam", "--method", "nurd", "--kind", "patch_randomize",
                     "--param", "8", "--in", image_dir, "--out", model_path,
                     "--seed", "2", "--epochs", "3", "--aux-epochs", "3"])
        assert code == 0
        assert "nurd+pr8 trained" in capsys.readouterr().out
        assert load_model(model_path).n_features == 32 * 32


class TestEvalFeatures:
    """``eval`` featurizes with the spec the model file records."""

    def test_eval_uses_the_training_featurization(self, tmp_path, capsys):
        data, model_path = str(tmp_path / "nli"), str(tmp_path / "m.bin")
        assert main(["gen", "--task", "nli", "--rho", "0.9", "--n", "60", "--seed", "2",
                     "--out", data]) == 0
        assert main(["train", "--in", data, "--out", model_path, "--seed", "0",
                     "--epochs", "2", "--ngram", "3", "--buckets", "32"]) == 0
        model = load_model(model_path)
        spec = FeatureSpec("bag_of_ngrams", ngram=3, buckets=32)
        assert model.feature_spec == spec
        capsys.readouterr()
        assert main(["eval", "--model", model_path, "--in", data, "--json"]) == 0
        got = json.loads(capsys.readouterr().out)["accuracy"]
        assert got == evaluate(model, load_dataset(data), spec).accuracy

    def test_eval_has_no_feature_flags(self, image_dir, tmp_path):
        model_path = str(tmp_path / "m.bin")
        assert main(["train", "--in", image_dir, "--out", model_path, "--seed", "0",
                     "--epochs", "1"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", model_path, "--in", image_dir, "--buckets", "32"])
        assert exc.value.code == 2

    def test_model_without_feature_spec_is_usage_error(self, image_dir, tmp_path, capsys):
        path = str(tmp_path / "bare.bin")
        save_model(LinearModel(32 * 32, 2), path)
        assert main(["eval", "--model", path, "--in", image_dir]) == 2
        assert "records no feature spec" in capsys.readouterr().err

    def test_feature_width_mismatch_is_usage_error(self, tmp_path, capsys):
        narrow, wide = str(tmp_path / "narrow"), str(tmp_path / "wide")
        save_dataset(sample_family(xor_sign_family(1.0, 8), 0.7, 20, seed=1), narrow)
        save_dataset(sample_family(negated_coordinate_family(0.5, 6), 0.7, 20, seed=1), wide)
        model_path = str(tmp_path / "m.bin")
        assert main(["train", "--in", narrow, "--out", model_path, "--seed", "0",
                     "--epochs", "1"]) == 0
        assert main(["eval", "--model", model_path, "--in", wide]) == 2
        assert "the dataset has 3 features, the model takes 2" in capsys.readouterr().err


class TestVerifyTheory:
    def test_all_checks_pass_and_table_written(self, tmp_path, capsys):
        table = str(tmp_path / "table.csv")
        code = main(["verify-theory", "--fuzz", "20", "--table", table])
        assert code == 0
        out = capsys.readouterr().out
        check_lines = [l for l in out.strip().split("\n") if ": " in l]
        assert len(check_lines) == 7
        assert all(l.startswith("PASS ") for l in check_lines)
        with open(table) as fh:
            rows = fh.read().strip().split("\n")
        assert len(rows) == 17
        assert rows[0].startswith("predictor,")


class TestUnwritableOutputs:
    """An output path that cannot be written fails with exit 3 before the
    checks or the sweep run, and leaves no other output behind."""

    @staticmethod
    def refuse(*args):
        raise AssertionError("the work ran before its output was opened")

    def test_verify_theory_table(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify_theory", self.refuse)
        assert main(["verify-theory", "--fuzz", "5", "--table", "/nonexistent/p.csv"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err

    @pytest.mark.parametrize("bad", ["out", "per-seed"])
    def test_report_outputs(self, tmp_path, monkeypatch, capsys, bad):
        monkeypatch.setattr(cli, "run_experiment", self.refuse)
        paths = {"out": tmp_path / "report.csv", "per-seed": tmp_path / "per_seed.csv"}
        paths[bad] = tmp_path / "missing" / "x.csv"
        assert main(["report", "--task", "image", "--seeds", "1",
                     "--out", str(paths["out"]), "--per-seed", str(paths["per-seed"])]) == 3
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_unknown_corruption_kind(self, image_dir, tmp_path, capsys):
        code = main(["corrupt", "--in", image_dir, "--kind", "wiggle",
                     "--seed", "0", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_corruption_kind_mismatched_to_data(self, image_dir, tmp_path, capsys):
        code = main(["corrupt", "--in", image_dir, "--kind", "ngram_randomize",
                     "--param", "1", "--seed", "0", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_bad_upsampling_factor(self, image_dir, tmp_path, capsys):
        code = main(["scam", "--method", "jtt", "--kind", "patch_randomize",
                     "--param", "8", "--lambda-up", "0", "--in", image_dir,
                     "--out", str(tmp_path / "x"), "--seed", "0",
                     "--epochs", "1"])
        assert code == 2

    @pytest.mark.parametrize("method", ["nurd", "jtt"])
    def test_zero_auxiliary_epochs_exit_2_before_any_work(self, tmp_path, capsys, method):
        # the --in directory does not exist: the budget is refused before it is read
        out = tmp_path / "x.bin"
        assert main(["scam", "--method", method, "--kind", "patch_randomize", "--param", "8",
                     "--in", str(tmp_path / "nowhere"), "--out", str(out), "--seed", "0",
                     "--aux-epochs", "0"]) == 2
        assert f"error: {method} needs --aux-epochs >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_auxiliary_epochs_are_unread_by_poe(self, image_dir, tmp_path):
        out = tmp_path / "x.bin"
        assert main(["scam", "--method", "poe", "--kind", "patch_randomize", "--param", "8",
                     "--in", image_dir, "--out", str(out), "--seed", "0", "--epochs", "1",
                     "--aux-epochs", "0"]) == 0
        assert out.exists()

    def test_train_zero_epochs_says_no_epoch_ran(self, image_dir, tmp_path, capsys):
        out = tmp_path / "m.bin"
        assert main(["train", "--in", image_dir, "--out", str(out), "--seed", "0",
                     "--epochs", "0"]) == 0
        assert capsys.readouterr().out == f"no epoch ran: saved the initial model -> {out}\n"
        assert load_model(str(out)).n_features == 32 * 32

    @pytest.mark.parametrize("method", ["erm", "boosting"])
    def test_scam_takes_only_corruption_driven_methods(self, image_dir, tmp_path, method):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["scam", "--method", method, "--kind", "patch_randomize", "--param", "8",
                  "--in", image_dir, "--out", str(out), "--seed", "0", "--epochs", "1"])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["corrupt", "--kind", "patch_randomize", "--param", "inf"],
        ["corrupt", "--kind", "patch_randomize", "--param", "8.5"],
        ["scam", "--method", "nurd", "--kind", "roi_mask", "--param", "inf"],
    ], ids=["corrupt-inf", "corrupt-fraction", "scam-inf"])
    def test_bad_corruption_parameter(self, image_dir, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main([*argv, "--in", image_dir, "--seed", "0", "--out", str(out)]) == 2
        assert "bad parameter" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["verify-theory", "--fuzz", "-5", "--table"],
        ["verify-theory", "--fuzz", "0", "--table"],
        ["report", "--task", "nli", "--seeds", "0", "--out"],
        ["report", "--task", "image", "--seeds", "-1", "--out"],
    ], ids=["negative-fuzz", "zero-fuzz", "zero-seeds", "negative-seeds"])
    def test_empty_runs_are_usage_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert main([*argv, str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_file(self, image_dir, tmp_path, capsys):
        code = main(["eval", "--model", str(tmp_path / "nope.bin"),
                     "--in", image_dir])
        assert code == 3

    def test_missing_dataset(self, tmp_path, capsys):
        code = main(["train", "--in", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "m.bin"), "--seed", "0"])
        assert code == 3

    # each request needs more than 2**47 bytes in one array, which numpy
    # refuses before allocating anything; a count numpy can index but the
    # machine cannot hold exits 3, and one numpy cannot index (10**30, the
    # _exits_2 tests) is a bad number, exit 2
    @pytest.mark.parametrize("task", ["image", "nli"])
    def test_oversized_generation_exits_3(self, tmp_path, capsys, task):
        out = tmp_path / "x"
        assert main(["gen", "--task", task, "--rho", "0.9", "--n", str(10**14),
                     "--seed", "0", "--out", str(out)]) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_hidden_width_exits_3(self, image_dir, tmp_path, capsys):
        out = tmp_path / "m.bin"
        assert main(["train", "--in", image_dir, "--out", str(out), "--seed", "0",
                     "--epochs", "1", "--hidden", str(10**14)]) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_class_count_exits_3(self, image_dir, tmp_path, capsys):
        data = tmp_path / "img"
        shutil.copytree(image_dir, data)
        meta = json.loads((data / "meta.json").read_text())
        (data / "meta.json").write_text(json.dumps(meta | {"n_classes": 10**14}))
        out = tmp_path / "m.bin"
        assert main(["train", "--in", str(data), "--out", str(out), "--seed", "0",
                     "--epochs", "1"]) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["image", "nli"])
    def test_unindexable_generation_exits_2(self, tmp_path, capsys, task):
        out = tmp_path / "x"
        assert main(["gen", "--task", task, "--rho", "0.9", "--n", str(10**30),
                     "--seed", "0", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unindexable_hidden_width_exits_2(self, image_dir, tmp_path, capsys):
        out = tmp_path / "m.bin"
        assert main(["train", "--in", image_dir, "--out", str(out), "--seed", "0",
                     "--epochs", "1", "--hidden", str(10**30)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unindexable_class_count_exits_2(self, image_dir, tmp_path, capsys):
        data = tmp_path / "img"
        shutil.copytree(image_dir, data)
        meta = json.loads((data / "meta.json").read_text())
        (data / "meta.json").write_text(json.dumps(meta | {"n_classes": 10**30}))
        out = tmp_path / "m.bin"
        assert main(["train", "--in", str(data), "--out", str(out), "--seed", "0",
                     "--epochs", "1"]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_bucket_count_exits_3(self, nli_dir, tmp_path, capsys):
        out = tmp_path / "m.bin"
        assert main(["train", "--in", nli_dir, "--out", str(out), "--seed", "0",
                     "--epochs", "1", "--buckets", str(10**14)]) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("buckets", [2**63, 10**30])
    def test_unindexable_bucket_count_exits_2(self, nli_dir, tmp_path, capsys, buckets):
        out = tmp_path / "m.bin"
        assert main(["train", "--in", nli_dir, "--out", str(out), "--seed", "0",
                     "--epochs", "1", "--buckets", str(buckets)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def huge_dir(tmp_path_factory):
    """Two-coordinate vectors with a 1e150 first coordinate, every label 0:
    one SGD step at a large rate overflows the weights to infinity while the
    loss it started from is finite."""
    path = str(tmp_path_factory.mktemp("huge") / "vec")
    covs = [(1e150, float(i % 3)) for i in range(16)]
    save_dataset(Dataset(covariates=covs, labels=np.zeros(16, dtype=np.int64),
                         n_classes=2), path)
    return path


class TestNonFiniteNumerics:
    @pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--lr", "inf"),
                                            ("--wd", "nan"), ("--wd", "-0.1")])
    def test_non_finite_or_negative_rates_are_usage_errors(self, image_dir, tmp_path,
                                                          capsys, flag, value):
        model_path = tmp_path / "m.bin"
        code = main(["train", "--in", image_dir, "--out", str(model_path), "--seed", "0",
                     "--epochs", "1", flag, value])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-1"])
    def test_bad_gamma_is_usage_error(self, image_dir, tmp_path, capsys, gamma):
        model_path = tmp_path / "m.bin"
        code = main(["scam", "--method", "dfl", "--gamma", gamma, "--kind", "patch_randomize",
                     "--param", "8", "--in", image_dir, "--out", str(model_path),
                     "--seed", "0", "--epochs", "1", "--aux-epochs", "1"])
        assert code == 2
        assert "gamma" in capsys.readouterr().err
        assert not model_path.exists()

    def test_hyperparameter_the_method_ignores_is_usage_error(self, nli_dir, tmp_path,
                                                             capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_method", TestUnwritableOutputs.refuse)
        model_path = tmp_path / "m.bin"
        code = main(["scam", "--method", "nurd", "--gamma", "5", "--kind", "ngram_randomize",
                     "--param", "1", "--in", nli_dir, "--out", str(model_path), "--seed", "0"])
        assert code == 2
        assert "nurd takes no gamma" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("method,flag,value", [("nurd", "--gamma", "2"),
                                                   ("dfl", "--lambda-up", "6")])
    def test_ignored_hyperparameter_at_its_default_is_usage_error(
            self, nli_dir, tmp_path, capsys, monkeypatch, method, flag, value):
        monkeypatch.setattr(cli, "run_method", TestUnwritableOutputs.refuse)
        model_path = tmp_path / "m.bin"
        code = main(["scam", "--method", method, flag, value, "--kind", "ngram_randomize",
                     "--param", "1", "--in", nli_dir, "--out", str(model_path), "--seed", "0"])
        assert code == 2
        assert f"{method} takes no {flag[2:].replace('-', '_')}" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("argv,want", [
        (["--method", "jtt"], MethodSpec("jtt", NR1)),
        (["--method", "jtt", "--lambda-up", "3"], MethodSpec("jtt", NR1, lambda_up=3)),
        (["--method", "dfl"], MethodSpec("dfl", NR1)),
        (["--method", "dfl", "--gamma", "0.5"], MethodSpec("dfl", NR1, gamma=0.5)),
    ])
    def test_scam_trains_the_method_spec_it_is_given(self, nli_dir, tmp_path, monkeypatch,
                                                    argv, want):
        seen = []

        def record(method, *args):
            seen.append(method)
            raise TrainingError("stop")
        monkeypatch.setattr(cli, "run_method", record)
        assert main(["scam", *argv, "--kind", "ngram_randomize", "--param", "1",
                     "--in", nli_dir, "--out", str(tmp_path / "m.bin"), "--seed", "0"]) == 3
        assert seen == [want]

    def test_train_diverging_on_last_step_exits_3(self, huge_dir, tmp_path, capsys):
        model_path = tmp_path / "m.bin"
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main(["train", "--in", huge_dir, "--out", str(model_path), "--seed", "0",
                         "--epochs", "1", "--batch", "64", "--lr", "1e200"])
        assert code == 3
        assert "non-finite parameters" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("method", [["--method", "poe"],
                                        ["--method", "dfl", "--gamma", "0"]])
    def test_scam_diverging_on_last_step_exits_3(self, huge_dir, tmp_path, capsys, method):
        model_path = tmp_path / "m.bin"
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main(["scam", *method, "--kind", "coordinate_mask", "--param", "1",
                         "--in", huge_dir, "--out", str(model_path), "--seed", "0",
                         "--epochs", "1", "--aux-epochs", "1", "--batch", "64",
                         "--lr", "1e200", "--aux-lr", "1e-160"])
        assert code == 3
        assert "non-finite parameters" in capsys.readouterr().err
        assert not model_path.exists()

    def test_eval_rejects_non_finite_model(self, image_dir, tmp_path, capsys):
        model = LinearModel(32 * 32, 2)
        model.set_flat(np.full(model.get_flat().size, np.nan))
        path = str(tmp_path / "nan.bin")
        save_model(model, path)
        assert main(["eval", "--model", path, "--in", image_dir]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [8, -8])
    def test_eval_rejects_wrong_length_model(self, image_dir, tmp_path, capsys, cut):
        path = tmp_path / "short.bin"
        save_model(LinearModel(32 * 32, 2), str(path))
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut < 0 else data + b"\0" * cut)
        assert main(["eval", "--model", str(path), "--in", image_dir]) == 2
        assert "parameters" in capsys.readouterr().err


def tiny_nli_preset(seeds):
    config, methods = desk_nli_experiment(seeds)
    return replace(config, n_train=48, n_eval=48,
                   cfg_main=replace(config.cfg_main, epochs=1),
                   cfg_aux=replace(config.cfg_aux, epochs=1)), methods


class TestReport:
    def test_failed_cell_exits_3_after_writing(self, tmp_path, monkeypatch, capsys):
        real = harness.run_method

        def flaky(method, *args, **kwargs):
            if method.name == "dfl":
                raise TrainingError("injected failure")
            return real(method, *args, **kwargs)

        monkeypatch.setitem(harness.TASKS, "nli",
                            replace(harness.TASKS["nli"], preset=tiny_nli_preset))
        monkeypatch.setattr(harness, "run_method", flaky)
        out_csv, per_seed = tmp_path / "report.csv", tmp_path / "per_seed.csv"
        code = main(["report", "--task", "nli", "--seeds", "1",
                     "--out", str(out_csv), "--per-seed", str(per_seed)])
        assert code == 3
        assert "warning: dfl2+nr1 seed 0 failed: TrainingError: injected failure" in \
            capsys.readouterr().err
        rows = out_csv.read_text().strip().split("\n")
        assert len(rows) == 1 + 3 * 3 * 2   # the three methods that completed
        assert len(per_seed.read_text().strip().split("\n")) == 1 + 3 * 3

    @pytest.mark.parametrize("other", ["./{}", "sub/../{}"])
    def test_same_file_for_both_outputs_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                       other):
        """Both CSVs opened on one path would leave a torn file; the run
        stops before it opens either."""
        monkeypatch.setitem(harness.TASKS, "nli",
                            replace(harness.TASKS["nli"], preset=tiny_nli_preset))
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        code = main(["report", "--task", "nli", "--seeds", "1",
                     "--out", "same.csv", "--per-seed", other.format("same.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "same.csv").exists()

    def test_dying_worker_exits_3_after_writing(self, tmp_path, monkeypatch, capsys):
        """A cell whose worker exits fails; ``report`` still writes both
        CSVs and exits 3.  Which other cells share that worker depends on
        the number of usable CPUs, so only the dying cell's error is
        asserted."""
        monkeypatch.setitem(harness.TASKS, "nli",
                            replace(harness.TASKS["nli"], preset=tiny_nli_preset))
        monkeypatch.setattr(harness, "run_dfl", lambda *args: os._exit(1))
        out_csv, per_seed = tmp_path / "report.csv", tmp_path / "per_seed.csv"
        code = main(["report", "--task", "nli", "--seeds", "1",
                     "--out", str(out_csv), "--per-seed", str(per_seed)])
        assert code == 3
        assert "warning: dfl2+nr1 seed 0 failed: ChildProcessError: " in \
            capsys.readouterr().err
        assert out_csv.read_text().startswith("method,split,metric,mean,stddev,stderr,seeds\n")
        assert per_seed.read_text().startswith("method,seed,split,accuracy,worst_group\n")

    def test_single_seed_image_report(self, tmp_path, capsys):
        out_csv = str(tmp_path / "report.csv")
        per_seed = str(tmp_path / "per_seed.csv")
        code = main(["report", "--task", "image", "--seeds", "1",
                     "--out", out_csv, "--per-seed", per_seed])
        assert code == 0
        with open(out_csv) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "method,split,metric,mean,stddev,stderr,seeds"
        assert len(lines) == 1 + 7 * 3 * 2  # 7 methods x 3 splits x 2 metrics
        with open(per_seed) as fh:
            assert len(fh.read().strip().split("\n")) == 1 + 7 * 3
        stdout = capsys.readouterr().out
        assert stdout.count("flipped-test accuracy") == 7


# subprocesses import the package from where this process found it, so the
# tests also run where only pytest's own ``pythonpath`` setting points at it
SUBPROCESS_ENV = os.environ | {"PYTHONPATH": os.pathsep.join(
    filter(None, (os.path.dirname(os.path.dirname(cli.__file__)),
                  os.environ.get("PYTHONPATH"))))}


def test_module_invocation(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "semcorrupt.cli", "gen", "--task", "image",
         "--rho", "0.5", "--n", "6", "--seed", "1",
         "--out", str(tmp_path / "d")],
        capture_output=True, text=True, env=SUBPROCESS_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert "wrote 6 image examples" in result.stdout


def test_report_is_byte_identical_across_processes(tmp_path):
    for task in ("nli", "image"):
        outputs = []
        for run in ("a", "b"):
            summary = tmp_path / f"{task}-{run}.csv"
            per_seed = tmp_path / f"{task}-{run}-seeds.csv"
            result = subprocess.run(
                [sys.executable, "-m", "semcorrupt.cli", "report", "--task", task,
                 "--seeds", "1", "--out", str(summary), "--per-seed", str(per_seed)],
                capture_output=True, text=True,
                env=SUBPROCESS_ENV | {"PYTHONHASHSEED": "1" if run == "a" else "2"},
            )
            assert result.returncode == 0, result.stderr
            outputs.append((summary.read_bytes(), per_seed.read_bytes()))
        assert outputs[0] == outputs[1], task
    table = tmp_path / "table.csv"
    outputs = []
    for hash_seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "semcorrupt.cli", "verify-theory", "--fuzz", "200",
             "--seed", "7", "--table", str(table)],
            capture_output=True, env=SUBPROCESS_ENV | {"PYTHONHASHSEED": hash_seed},
        )
        assert result.returncode == 0, result.stderr
        outputs.append((result.stdout, table.read_bytes()))
        table.unlink()
    assert outputs[0] == outputs[1], "verify-theory"
