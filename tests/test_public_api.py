"""Guards on the package's public surface: the exported names, the
README Quick-start example and the README's sample config."""

import math
import re
from pathlib import Path

import srmec
from srmec.config import default_config, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves_once():
    assert len(set(srmec.__all__)) == len(srmec.__all__)
    missing = [name for name in srmec.__all__ if not hasattr(srmec, name)]
    assert missing == []


def test_readme_quick_start_runs_and_prints_finite_numbers(capsys):
    text = README.read_text(encoding="utf-8")
    quick_start = text[text.index("## Quick start") :]
    block = re.search(r"```python\n(.*?)```", quick_start, re.DOTALL).group(1)
    exec(compile(block, "README.md Quick start", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4
    assert all(math.isfinite(float(value)) for value in printed)


def test_readme_sample_config_loads_as_the_defaults(tmp_path):
    text = README.read_text(encoding="utf-8")
    sample = text[text.index("### Configuration file") :]
    block = re.search(r"```ini\n(.*?)```", sample, re.DOTALL).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    assert load_config(path) == default_config()
