"""The README's library sketch runs as written, and its run-artifact
schema is the one runio reads and writes."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

from tollgate import runio

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


def test_readme_states_the_episode_log_keys_and_the_summary_header():
    text = (ROOT / "README.md").read_text()
    keys = re.search(r"^\* `episodes\.jsonl` - .*?`\{(.*?)\}`", text, re.M | re.S)
    assert keys and keys.group(1).split(", ") == list(runio._RECORD_KINDS)
    header = re.search(r"^\* `summary\.csv` - .*?`(episode,.*?)`", text, re.M | re.S)
    assert header and tuple(header.group(1).split(",")) == runio._SUMMARY_FIELDS
