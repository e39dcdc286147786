"""The README and packaging metadata agree with the code."""

import re
import tomllib
from pathlib import Path

import opinionsum
from opinionsum.pipeline import STAGES

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


def test_pyproject_version_matches_package():
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == opinionsum.__version__
