"""The README's examples run as written: its Python quick start executes
and its example run config loads."""

import json
import re
from pathlib import Path

from gramfield import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README,
                      flags=re.DOTALL | re.MULTILINE)


def test_quick_start_runs(capsys):
    (block,) = fenced_blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    distance = float(capsys.readouterr().out)
    assert 0.0 <= distance <= 1.0


def test_example_config_loads():
    (block,) = fenced_blocks("json")
    cfg = cli.ExperimentConfig.from_json_dict(json.loads(block))
    assert cfg.mode == "centered"
    assert (cfg.N, cfg.n, len(cfg.seeds)) == (256, 256, 10)
