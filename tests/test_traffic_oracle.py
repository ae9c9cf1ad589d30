"""Each committed scenario still sends the same traffic and leaves the same
stores behind, on both backends, as its golden record under tests/golden/."""
import json

import pytest

from .traffic_oracle import GOLDEN_SNAPSHOTS, golden_log_path, record, scenario_paths


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("path", scenario_paths(), ids=lambda path: path.stem)
def test_scenario_matches_its_golden_traffic_and_snapshots(path, backend, tmp_path):
    got = record(path, backend=backend, root=tmp_path)
    assert got["log"] == golden_log_path(path).read_text(encoding="utf-8")
    golden = json.loads(GOLDEN_SNAPSHOTS.read_text(encoding="utf-8"))
    assert got["snapshots"] == golden[path.stem]
