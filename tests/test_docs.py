"""The README and packaging metadata agree with the code."""

import importlib
import json
import re
from fnmatch import fnmatchcase
from dataclasses import fields, is_dataclass
from pathlib import Path

import opinionsum
from opinionsum import pipeline
from opinionsum.classifier import ReferenceEncoder, save_checkpoint
from opinionsum.cli import _CONFIG_FLAGS
from opinionsum.corpus import Vocabulary, load_schema, sentence_from_json, sentence_to_json
from opinionsum.embedding import EmbedConfig, init_space, save_space
from opinionsum.pipeline import STAGES, PipelineConfig
from opinionsum.synthetic import SyntheticSpec, generate_synthetic

ROOT = Path(__file__).resolve().parent.parent


def _expand(name: str) -> list[str]:
    """`classifier_{aspect,sentiment}.ckpt` -> both names, in that order."""
    m = re.search(r"\{([^}]*)\}", name)
    if not m:
        return [name]
    return [name[: m.start()] + part + name[m.end() :] for part in m.group(1).split(",")]


def test_readme_stage_table_matches_stages():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Pipeline stages and artifacts", 1)[1].split("\n## ", 1)[0]
    table = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            artifacts = [a for cell in re.findall(r"`([^`]+)`", cells[1]) for a in _expand(cell)]
            table.append((cells[0].strip("`"), tuple(artifacts)))
    assert table == [(stage.name, stage.artifacts) for stage in STAGES]


def test_readme_file_formats_name_every_artifact():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## File formats", 1)[1].split("\n## ", 1)[0]
    named = [name for cell in re.findall(r"`([^`]+)`", section) for name in _expand(cell)]
    missing = [a for stage in STAGES for a in stage.artifacts if not any(fnmatchcase(a, name) for name in named)]
    assert missing == []


def _written_headers(tmp_path) -> list[dict]:
    """The header of each binary artifact, each written by its own writer:
    save_space, save_checkpoint and the classify stage's phrase vectors."""
    paths = generate_synthetic(SyntheticSpec(n_sentences=20), 0, tmp_path / "data")
    cfg = PipelineConfig(
        corpus=str(paths["corpus"]),
        trees=str(paths["trees"]),
        aspect_schema=str(paths["aspect_schema"]),
        sentiment_schema=str(paths["sentiment_schema"]),
        workdir=str(tmp_path / "work"),
    )
    w = tmp_path / "work"
    w.mkdir()
    pipeline._run_extract(cfg)
    vocab = Vocabulary.load(w / "vocab.txt")
    for kind in ("aspect", "sentiment"):  # classify reads both models
        names = load_schema(cfg.schema_path(kind), kind).names
        save_checkpoint(ReferenceEncoder(len(vocab) + 1, 4, names), w / f"classifier_{kind}_ft.ckpt")
    schema = load_schema(cfg.aspect_schema, "aspect")
    save_space(init_space(vocab, schema, EmbedConfig(dim=4), ["s0"], 0), w / "embed_aspect.bin")
    pipeline._run_classify(cfg)
    names = ("embed_aspect.bin", "classifier_aspect_ft.ckpt", "phrase_vectors.bin")
    return [json.loads((w / name).read_bytes().split(b"\n", 1)[0]) for name in names]


def test_readme_file_formats_name_every_header_key(tmp_path):
    """The binary containers paragraph names the keys every header holds, and
    each kind's bullet the keys of its own header."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## File formats", 1)[1].split("\n## ", 1)[0]
    common, *bullets = section.split("**Binary containers**", 1)[1].split("\n\n", 1)[0].split("\n- ")
    named = {bullet.split("`", 2)[1]: set(re.findall(r"`([^`]+)`", bullet)) for bullet in bullets}
    headers = _written_headers(tmp_path)
    assert sorted(header["kind"] for header in headers) == sorted(named)
    for header in headers:
        missing = header.keys() - named[header["kind"]] - set(re.findall(r"`([^`]+)`", common))
        assert not missing, (header["kind"], sorted(missing))


def test_readme_manifest_row_is_one_the_writer_writes():
    """The manifest paragraph's example row has the keys and token shape
    sentence_to_json writes: the reader accepts it and the writer gives back
    its bytes."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## File formats", 1)[1].split("\n## ", 1)[0]
    paragraph = section.split("**Workdir manifest**", 1)[1].split("\n\n**", 1)[0]
    (example,) = [span for span in re.findall(r"`([^`]+)`", paragraph) if span.startswith("{")]
    assert sentence_to_json(sentence_from_json(example)) == example


def test_readme_config_table_lists_every_key_and_flag():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = []  # (keys, flags) named in each row's first cell
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            names = re.findall(r"`([^`]+)`", cells[0])
            rows.append(([n for n in names if not n.startswith("--")], [n for n in names if n.startswith("--")]))
    keys = [key for row_keys, _ in rows for key in row_keys]
    config_keys = [
        f"{f.name}.{g.name}" if is_dataclass(f.type) else f.name
        for f in fields(PipelineConfig)
        for g in (fields(f.type) if is_dataclass(f.type) else [f])
    ]
    assert sorted(keys) == sorted(config_keys)
    flags_of = {key: flags for row_keys, flags in rows for key in row_keys}
    for flag, path, _ in _CONFIG_FLAGS:
        assert flag in flags_of[".".join(path)], flag
    assert sorted(f for _, flags in rows for f in flags) == sorted(flag for flag, _, _ in _CONFIG_FLAGS)


def test_readme_code_imports_resolve():
    """Every name a README code block imports from the package exists, so a
    rename cannot leave the README stale."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = "".join(re.findall(r"^```\w*\n(.*?)^```", text, flags=re.M | re.S))
    imports = [
        (module, name.strip())
        for module, names in re.findall(r"^from (opinionsum[\w.]*) import (\([^)]*\)|.*)$", code, flags=re.M)
        for name in names.strip("()").split(",")
        if name.strip()
    ]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_pyproject_version_matches_package():
    # read without tomllib, which Python 3.10 (the oldest supported) lacks
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]*)"$', project, flags=re.M) == [opinionsum.__version__]
