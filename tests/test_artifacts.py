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
        "boundaries.jsonl": "311cfa227df8ec93b639d14ffad4b09b40fc8b3aebb903a4cedf1b9fe7c05a3e",
        "episodes.jsonl": "011ab309446cc72449630382f95abc4271620244ed07f814ab070b061fd092e6",
        "manifest.json": "edf5b9021000090dc414fe18937bebb8d4ddf175ab75771f60624a84898d428e",
        "summary.csv": "918159758f9ca994a86ce52b81be0e7a78b326827f9da5e8b1a161df69639b8b",
        "report": "9b22a0c018ec340cc03a65857bd598ade8d73288c2a302847378a7d42153a894",
    },
    "database": {
        "boundaries.jsonl": "73493aca3b9f0ab7dad5bd0b5c5e0660afd2c56872e9d98444a1b24a831802dc",
        "episodes.jsonl": "7725ce4d4acfd66f64ffe71954759c14bca5766c989389865ffc68352fb6a046",
        "manifest.json": "6150fc3fc595b2f88b1817c2d3ee0bfff4694d9f5eaecf8f0b2067eabebf7bc2",
        "summary.csv": "5c068c13c6751c2971c8263e07cee7999cbb5a8de0c7b787912eb1ca9316e82b",
        "report": "77e772b51d0d317a96155623bfd560ade47b6bb8cd1432b767f9f3e3fc2ac6f0",
    },
    "trading": {
        "boundaries.jsonl": "2aa674f6539e3ec35baa92521cf2949e33f5c07d506327c69f200d37424d5894",
        "episodes.jsonl": "ce76cb4ca35136b743869c51ff8b333d21bbb3d1b9b676b594ae96e4524ca969",
        "manifest.json": "05b77239da6812132a6cc415470c51b4f86b346877d37d688fadb74692f9700e",
        "summary.csv": "5b974aeb3b1fe5d88dcbb35f57d71145a9efca70c51e3b8e320972b53473a861",
        "report": "693cebf2d1b255f781101b7578e59857a113bebf6999684d50e7d9112dc60dd6",
    },
}

# Payments with a conformal envelope: the run calibrates before it gates,
# and the manifest records the fitted inflation and rank.
CONFORMAL_RUN_DIGESTS = {
    "boundaries.jsonl": "130f7d3be3b8bb1b1ea2a5ad960b1e09291349c25e70ebcad3d5546b490fe32a",
    "episodes.jsonl": "1f90482f1c5852139ea0b12b9aa2683ebd17a73ec23913dab39f3af762c0cdf2",
    "manifest.json": "27d4ad626169ceafcbb5a582d53d578d6d378645fa5fa7c2f8a67b50e4e30ad3",
    "summary.csv": "f5ae9b7694d75bf3ea1fe3d31e2fcede0003ae2eee30d165f6dbfed33e1d16f3",
    "report": "180114f3c3e702eab4c6172b34f9fea5f4b032712fc48682b627a6bd17a24dee",
}

CALIBRATION_DIGESTS = {
    "calibration.csv": "bd7c721d4f03dea87f51f27472ed0e7534ebf2c50015cd6e3b09872d2478c74f",
    "envelope.json": "4877f401bd4502bb698afb2f9c441476b56128663c602a9483ccbc518581398d",
}

VERIFY_DIGESTS = {
    "time-consistency": "651b555707cf77a514da044fa63316450c656dc888e8c7ff6d0e3dc0339167ca",
    "cvar-demo": "2b3fabea527e08ed40652780a0436c0da7525e10141167ee5160a733eeab2719",
    "no-splitting": "2628751b089faaf3382355bf6fd56623b8ef20d91bb16db69618279e85b65336",
    "iap": "6d146b675d7d1a7203fbb839b3df0c373e711b88b3c6570e61969fb578036d26",
    "gating": "492c7230b57532e9a9ae9295bf2e1ea539586c796298cc990f771805410993e9",
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
