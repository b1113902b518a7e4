"""The README's library sketch runs as written, and its run-artifact
schema is the one runio reads and writes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from tollgate import runio
from tollgate.gate import Gate, run_episode
from tollgate.scenario import bundled_scenario_path, load_scenario

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_sketch_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    done = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 3


def test_readme_states_the_episode_log_keys_and_the_summary_header(tmp_path):
    # the keys of one line each that the log writers write of a gated
    # episode, in any order
    sc = load_scenario(bundled_scenario_path("payments"))
    log = run_episode(Gate(sc.model, sc.policy, sc.gate), 1, 0)
    assert log.entries and log.boundary_records
    text = (ROOT / "README.md").read_text()
    for name, write in (
        (runio.EPISODE_LOG_NAME, runio.write_episode_logs),
        (runio.BOUNDARY_LOG_NAME, runio.write_boundary_log),
    ):
        line = write(tmp_path, [log]).read_text().splitlines()[0]
        keys = re.search(rf"^\* `{re.escape(name)}` - .*?`\{{(.*?)\}}`", text, re.M | re.S)
        assert keys and sorted(keys.group(1).split(", ")) == list(json.loads(line)), name
    header = re.search(r"^\* `summary\.csv` - .*?`(episode,.*?)`", text, re.M | re.S)
    assert header and tuple(header.group(1).split(",")) == runio._SUMMARY_FIELDS


def test_readme_states_the_manifest_keys(tmp_path):
    # the keys of a manifest the writer writes, in any order
    parts = runio.manifest_parts("x", "0" * 64, 1, 0, {"kind": "exact"})
    path = runio.write_manifest(tmp_path, b"{}", parts)
    text = (ROOT / "README.md").read_text()
    keys = re.search(r"^\* `manifest\.json` - .*?`\{(.*?)\}`", text, re.M | re.S)
    assert keys and sorted(keys.group(1).split(", ")) == list(json.loads(path.read_text()))
