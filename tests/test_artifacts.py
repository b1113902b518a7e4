"""Byte identity of run artifacts, report and verify output for fixed seeds.

For a fixed (scenario, seed) every artifact must stay byte for byte the
same. The digests below pin the float output of the current toolchain; a
change that re-baselines on purpose updates them and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from tollgate.cli import main
from tollgate.scenario import bundled_scenario_path

RUN_DIGESTS = {
    "payments": {
        "boundaries.jsonl": "5c439b3d753ae3e0903ec2fdc494ef1c297a52f282afc21af83f8d325dd4f137",
        "episodes.jsonl": "7ef16f7d65e863706b44c44bebc09f1117ea96addafd0478b8824a474e494eda",
        "manifest.json": "edf5b9021000090dc414fe18937bebb8d4ddf175ab75771f60624a84898d428e",
        "summary.csv": "47aeb5e543e0b0106df69717786652448c7c17ea7c408ddb2ae862e045d83bde",
        "report": "0cb7a8c648fb492bf9bd7ff0a89d91fb9b3b6cc0cc16fff07d70981427e14237",
    },
    "database": {
        "boundaries.jsonl": "1a2cf0aadd72dcd6c3051b78ce1fdc879304f654260501842a4c4c7dd0105378",
        "episodes.jsonl": "2d14a82bda1b1a8d4f836e6087758c73ea27f603fcb05161fc2cc3f0fc522bbc",
        "manifest.json": "6150fc3fc595b2f88b1817c2d3ee0bfff4694d9f5eaecf8f0b2067eabebf7bc2",
        "summary.csv": "4a4e2eae2d8900a2a1c25bce4f3f308712304a13e0fa050e9d4b1b727a0d3eb7",
        "report": "9ce2bdc500102c8000572f45a515fc25f60c7921e2d3fc63ff081a23c8b670b3",
    },
    "trading": {
        "boundaries.jsonl": "9074e9a233dbdc347c980542d5a8fde9307661b0b005211fc83b8927f0cde212",
        "episodes.jsonl": "452f1683f36576f84b8155de61c2fb3a1441272813d0f212509e6f606572a54e",
        "manifest.json": "05b77239da6812132a6cc415470c51b4f86b346877d37d688fadb74692f9700e",
        "summary.csv": "b62d4bb321daa12344fb9cf12a93e9fe84a620781110fe17809053e42d9cc78f",
        "report": "07c8ecf2c5fa4bbe24d1fd89baeba48b9a08528db9658c160189e6d7dc8da457",
    },
}

# Payments with a conformal envelope: the run calibrates before it gates,
# and the manifest records the fitted inflation and rank.
CONFORMAL_RUN_DIGESTS = {
    "boundaries.jsonl": "bea5a5612e1608fa5c6e10b919798eea5e671b4fdd7d09a6afd6b12e6ca33ff5",
    "episodes.jsonl": "4fd52d371d2558c28753594855ee7b0b79a5f853a9564b9da126e7cc3a363d32",
    "manifest.json": "e204812439645ff77638cd5950b17675fb4845e4cfe160aacabb4a8966ea5d25",
    "summary.csv": "ac1b0606bb7470e515c153aa05e00e36d5afbfaf77b0dbdef2291bdef84b6a37",
    "report": "17dfcaf7c2e93ea96d69c422cb7059ee0d729b7344ed2b72ce51ea824a5106d7",
}

CALIBRATION_DIGESTS = {
    "calibration.csv": "52dd4ce05c302f0d94ba5fe591901e17ae611229eb184dbfc9336d8e439b3fda",
    "envelope.json": "acb71bbc9d94bbabca16cfd531c29872e53503f0281c4f7ada497e4e6b03cefa",
}

VERIFY_DIGESTS = {
    "no-splitting": "f042e35508bb42f4373171ae75ee236617fa089884fe918e12e8267ee4a78ba7",
    "gating": "e8906cf45dd3c505f73fa2f99a494959e8c88f21aff275e86bc4a0d216f046ed",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_and_report_digests(scenario, out, capsys) -> dict:
    args = ["run", "--scenario", scenario, "--episodes", "40", "--seed", "301", "--out", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    digests = {p.name: _sha256(p.read_bytes()) for p in out.iterdir()}
    digests["report"] = _sha256(capsys.readouterr().out.encode())
    return digests


@pytest.mark.parametrize("name", sorted(RUN_DIGESTS))
def test_run_and_report_bytes_pinned(name, tmp_path, capsys):
    assert _run_and_report_digests(name, tmp_path / name, capsys) == RUN_DIGESTS[name]


def test_conformal_run_and_report_bytes_pinned(tmp_path, capsys):
    doc = json.loads(bundled_scenario_path("payments").read_text())
    doc["envelope"] = {"kind": "conformal", "calibration_episodes": 60, "training_episodes": 30}
    scenario = tmp_path / "payments-conformal.scn.json"
    scenario.write_text(json.dumps(doc))
    digests = _run_and_report_digests(str(scenario), tmp_path / "run", capsys)
    assert digests == CONFORMAL_RUN_DIGESTS


def test_calibrate_bytes_pinned(tmp_path):
    out = tmp_path / "cal"
    assert main([
        "calibrate", "--scenario", "payments", "--episodes", "60",
        "--delta", "0.1", "--seed", "5", "--out", str(out),
    ]) == 0
    digests = {p.name: _sha256(p.read_bytes()) for p in out.iterdir()}
    assert digests == CALIBRATION_DIGESTS


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_stdout_pinned(suite, capsys):
    assert main(["verify", "--suite", suite, "--seed", "301"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == VERIFY_DIGESTS[suite]
