"""The README's examples run as written: its Python quick start executes,
its example run config loads, and the names it cites exist."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import gramfield
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


def test_module_qualified_names_exist():
    # each backticked `<module>.<name>` must exist, so a deleted name
    # cannot stay documented
    modules = {"gramfield": gramfield} | {
        m.name: importlib.import_module(f"gramfield.{m.name}")
        for m in pkgutil.iter_modules(gramfield.__path__)}
    refs = re.findall(rf"`({'|'.join(modules)})\.(\w+)`", README)
    assert refs
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(modules[module], name)]
    assert missing == [], f"README cites names that do not exist: {missing}"
