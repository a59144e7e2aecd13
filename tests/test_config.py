"""The README's config section against the field descriptions it documents."""

from __future__ import annotations

import json
import re
from dataclasses import fields
from pathlib import Path

from duetbench import ExperimentConfig, VariabilityModel

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _key_paths(layout: dict, prefix: str = "") -> set[str]:
    return {p for key, v in layout.items()
            for p in (_key_paths(v, f"{prefix}{key}.") if isinstance(v, dict) else {prefix + key})}


def test_readme_example_is_the_default_config():
    example = json.loads(re.search(r"```json\n(.*?)```", README, re.S).group(1))
    assert ExperimentConfig.from_dict(example).to_dict() == ExperimentConfig().to_dict()
    del example["output_dir"], example["formats"]
    assert example == ExperimentConfig().to_dict()


def test_readme_key_table_names_every_key():
    table = README[README.index("| key | type |"):].split("\n\n")[0]
    keys = {key for row in table.splitlines()[2:] for key in re.findall(r"`([\w.*]+)`", row.split("|")[1])}
    model = {f"model.{f.name}" for f in fields(VariabilityModel)}
    named = set().union(*(model if key == "model.*" else {key} for key in keys))
    assert named == _key_paths(ExperimentConfig().to_dict()) | {"output_dir", "formats"}
