"""The artifact hash script runs configs that the CLI accepts, one or
more in every mode."""

import importlib.util
from pathlib import Path

from gramfield import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_hashes.py"


def test_artifact_hash_configs_cover_every_mode():
    spec = importlib.util.spec_from_file_location("artifact_hashes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    docs = tool.configs()
    assert len(docs) == 7
    assert {cli.ExperimentConfig.from_json_dict(doc).mode
            for doc in docs.values()} == set(cli.MODES)
