"""Damaged dataset and model files through the command line.

Whatever the damage (a file cut short, a ``meta.json`` or model-header key
deleted, a ``labels.csv`` row dropped), ``train``, ``eval`` and ``corrupt``
must refuse with exit 2 (a bad file) or 3 (an unreadable one): never an
uncaught exception, never exit 1, which is kept for failed verification,
and never exit 0.  Non-finite values in a vector payload are bad data
(exit 2) too, and so are a grid payload cut or extended at a chunk
boundary and a ``meta.json`` grid shape that is not all counts.
"""

import json
import math
import os
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semcorrupt.cli import main
from semcorrupt.corruptions import GRID_CHUNK
from semcorrupt.errors import ConfigError
from semcorrupt.families import sample_family, xor_sign_family
from semcorrupt.harness import load_dataset, save_dataset

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


@pytest.mark.parametrize("command", ["train", "eval", "corrupt"])
def test_boolean_grid_dimension_exits_2(saved, tmp_path, capsys, command):
    """true is an int to Python but no grid dimension; the file is refused
    as a bad shape, before numpy sees it."""
    shutil.copytree(saved / "image", tmp_path, dirs_exist_ok=True)
    meta_path = tmp_path / "data" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["shape"][2] = True
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match="bad grid shape"):
        load_dataset(str(tmp_path / "data"))
    assert main(_commands(tmp_path, "image")[command]) == 2
    assert f"{meta_path}: bad grid shape" in capsys.readouterr().err


CHUNKED_N = 2 * GRID_CHUNK + 5


@pytest.fixture(scope="module")
def chunked(saved, tmp_path_factory):
    """CHUNKED_N saved images, three chunks of payload: ``f4`` as generated
    (a single-precision payload) and ``f8``, its freq_filter 30 corruption,
    whose values leave [0, 1] (a double-precision one); each beside the
    image model of ``saved``."""
    root = tmp_path_factory.mktemp("chunked")
    assert main(["gen", "--task", "image", "--rho", "0.9", "--n", str(CHUNKED_N),
                 "--seed", "2", "--out", str(root / "f4" / "data")]) == 0
    assert main(["corrupt", "--in", str(root / "f4" / "data"), "--kind", "freq_filter",
                 "--param", "30", "--seed", "0", "--out", str(root / "f8" / "data")]) == 0
    for payload in ("f4", "f8"):
        meta = json.loads((root / payload / "data" / "meta.json").read_text())
        assert meta["dtype"] == "<" + payload
        shutil.copy(saved / "image" / "model.bin", root / payload / "model.bin")
    return root


@pytest.mark.parametrize("command", ["train", "eval", "corrupt"])
@pytest.mark.parametrize("damage", ["cut_one_byte", "cut_to_one_chunk", "add_one_byte"])
@pytest.mark.parametrize("payload", ["f4", "f8"])
def test_grid_payload_of_wrong_size_exits_2(chunked, tmp_path, capsys, payload, damage,
                                            command):
    shutil.copytree(chunked / payload, tmp_path, dirs_exist_ok=True)
    data = tmp_path / "data" / "data.bin"
    raw = data.read_bytes()
    chunk = GRID_CHUNK * len(raw) // CHUNKED_N
    data.write_bytes({"cut_one_byte": raw[:-1], "cut_to_one_chunk": raw[:chunk],
                      "add_one_byte": raw + b"\0"}[damage])
    assert main(_commands(tmp_path, "image")[command]) == 2
    assert f"{data} holds {len(data.read_bytes())} bytes, which do not fit" in \
        capsys.readouterr().err


def test_grid_payload_cut_while_read_is_a_size_mismatch(chunked, tmp_path, monkeypatch):
    """A data.bin cut after its size was checked (the size check sees the
    whole file) is refused as the short read it makes."""
    shutil.copytree(chunked / "f4", tmp_path, dirs_exist_ok=True)
    data = tmp_path / "data" / "data.bin"
    whole = os.stat(data)
    data.write_bytes(data.read_bytes()[:-1])
    monkeypatch.setattr(os, "fstat", lambda fd: whole)
    with pytest.raises(ConfigError, match=f"holds {whole.st_size - 1} bytes, which do not fit"):
        load_dataset(str(tmp_path / "data"))
