"""Damaged dataset and model files through the command line.

Whatever the damage (a file cut short, a ``meta.json`` or model-header key
deleted, a ``labels.csv`` row dropped), ``train``, ``eval`` and ``corrupt``
must refuse with exit 2 (a bad file) or 3 (an unreadable one): never an
uncaught exception, never exit 1, which is kept for failed verification,
and never exit 0.  Non-finite values in a vector payload are bad data
(exit 2) too.
"""

import json
import math
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semcorrupt.cli import main
from semcorrupt.families import sample_family, xor_sign_family
from semcorrupt.harness import save_dataset

CORRUPTION = {"image": ("patch_randomize", "4"), "nli": ("ngram_randomize", "1"),
              "vector": ("coordinate_mask", "0")}


def _commands(work: Path, task: str) -> dict:
    data, model = str(work / "data"), str(work / "model.bin")
    kind, param = CORRUPTION[task]
    return {
        "train": ["train", "--in", data, "--out", str(work / "out.bin"), "--seed", "0",
                  "--epochs", "1"],
        "eval": ["eval", "--model", model, "--in", data],
        "corrupt": ["corrupt", "--in", data, "--kind", kind, "--param", param,
                    "--seed", "0", "--out", str(work / "corrupted")],
    }


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """One small saved dataset of each covariate kind with a model trained
    on it; every command succeeds on the undamaged files."""
    root = tmp_path_factory.mktemp("damage")
    for task, n in (("image", 12), ("nli", 40)):
        assert main(["gen", "--task", task, "--rho", "0.9", "--n", str(n), "--seed", "1",
                     "--out", str(root / task / "data")]) == 0
    save_dataset(sample_family(xor_sign_family(1.0, 8), 0.7, 25, seed=8),
                 str(root / "vector" / "data"))
    for task in CORRUPTION:
        work = root / task
        assert main(["train", "--in", str(work / "data"), "--out", str(work / "model.bin"),
                     "--seed", "0", "--epochs", "1"]) == 0
        for argv in _commands(work, task).values():
            assert main(argv) == 0
        (work / "out.bin").unlink()
        shutil.rmtree(work / "corrupted")
    return root


def _damage(path: Path, data) -> None:
    """Cut ``path`` short, or delete a key of its JSON part, or drop one
    line of a label table (its header included)."""
    raw = path.read_bytes()
    how = data.draw(st.sampled_from(
        ["truncate"] + (["drop_key"] if path.name in ("meta.json", "model.bin") else [])
        + (["drop_row"] if path.name == "labels.csv" else [])))
    if how == "truncate":
        # a cut inside the trailing newline of a text file leaves it whole
        end = len(raw.rstrip()) if path.suffix in (".json", ".csv") else len(raw)
        path.write_bytes(raw[:data.draw(st.integers(0, end - 1))])
    elif how == "drop_row":
        lines = raw.decode().splitlines(keepends=True)
        del lines[data.draw(st.integers(0, len(lines) - 1))]
        path.write_bytes("".join(lines).encode())
    elif path.name == "meta.json":
        meta = json.loads(raw)
        del meta[data.draw(st.sampled_from(sorted(meta)))]
        path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    else:
        magic, header, params = raw.split(b"\n", 2)
        fields = json.loads(header)
        del fields[data.draw(st.sampled_from(sorted(fields)))]
        path.write_bytes(b"\n".join([magic, json.dumps(fields).encode(), params]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_files_exit_2_or_3(saved, data):
    task = data.draw(st.sampled_from(sorted(CORRUPTION)))
    command = data.draw(st.sampled_from(["train", "eval", "corrupt"]))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(saved / task, work, dirs_exist_ok=True)
        files = [work / "data" / name for name in ("meta.json", "data.bin", "labels.csv")]
        if command == "eval":
            files.append(work / "model.bin")
        _damage(data.draw(st.sampled_from(files)), data)
        assert main(_commands(work, task)[command]) in (2, 3)


@pytest.mark.parametrize("command", ["train", "eval", "corrupt"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_vector_payload_exits_2(saved, tmp_path, capsys, command, value):
    shutil.copytree(saved / "vector", tmp_path, dirs_exist_ok=True)
    payload = tmp_path / "data" / "data.bin"
    values = bytearray(payload.read_bytes())
    values[8:16] = struct.pack("<d", value)
    payload.write_bytes(bytes(values))
    assert main(_commands(tmp_path, "vector")[command]) == 2
    assert "non-finite" in capsys.readouterr().err


# a pair payload starts: mask id, premise length, premise tokens, ...
@pytest.mark.parametrize("command", ["train", "eval", "corrupt"])
@pytest.mark.parametrize("word,message", [(2, "token ids must be non-negative"),
                                          (0, "mask id must be non-negative"),
                                          (1, "pair payload ends early")])
def test_negative_pair_word_exits_2(saved, tmp_path, capsys, command, word, message):
    shutil.copytree(saved / "nli", tmp_path, dirs_exist_ok=True)
    payload = tmp_path / "data" / "data.bin"
    words = bytearray(payload.read_bytes())
    words[4 * word:4 * word + 4] = struct.pack("<i", -1)
    payload.write_bytes(bytes(words))
    assert main(_commands(tmp_path, "nli")[command]) == 2
    assert message in capsys.readouterr().err
