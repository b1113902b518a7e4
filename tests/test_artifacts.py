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
        "manifest.json": "e68b8a7fb202f05b50d21aad96267760695f56d41fd69b4cc7137b129ae05415",
        "summary.csv": "918159758f9ca994a86ce52b81be0e7a78b326827f9da5e8b1a161df69639b8b",
        "report": "9b22a0c018ec340cc03a65857bd598ade8d73288c2a302847378a7d42153a894",
    },
    "database": {
        "boundaries.jsonl": "73493aca3b9f0ab7dad5bd0b5c5e0660afd2c56872e9d98444a1b24a831802dc",
        "episodes.jsonl": "7725ce4d4acfd66f64ffe71954759c14bca5766c989389865ffc68352fb6a046",
        "manifest.json": "9e98396a8bb5f316fe8d72ab5e3bcfc503343f92a72e887f05e16403e20adaac",
        "summary.csv": "5c068c13c6751c2971c8263e07cee7999cbb5a8de0c7b787912eb1ca9316e82b",
        "report": "77e772b51d0d317a96155623bfd560ade47b6bb8cd1432b767f9f3e3fc2ac6f0",
    },
    "trading": {
        "boundaries.jsonl": "2aa674f6539e3ec35baa92521cf2949e33f5c07d506327c69f200d37424d5894",
        "episodes.jsonl": "ce76cb4ca35136b743869c51ff8b333d21bbb3d1b9b676b594ae96e4524ca969",
        "manifest.json": "1b52194c2a986e084db4ffb590bf8dfc90ea3c73e0eca5b8be649c584a38d204",
        "summary.csv": "5b974aeb3b1fe5d88dcbb35f57d71145a9efca70c51e3b8e320972b53473a861",
        "report": "693cebf2d1b255f781101b7578e59857a113bebf6999684d50e7d9112dc60dd6",
    },
}

# The shared bundled runs at the benchmark's size, 5,000 episodes at seed 1
# (see conftest.py), and their reports. Most of their lines repeat an earlier
# line but for the episode, and most episodes an earlier episode's path, so
# these reports go through the readers' line memo and the audit's path memo.
BENCH_SIZE_DIGESTS = {
    "payments": {
        "boundaries.jsonl": "d4f948fe2d82173f043d186824d06883aaf4a6727ea71d0ea1681d30b8123de7",
        "episodes.jsonl": "2402686ffcff69028e3250ae9af5b80a532ae05b6ca145ab2af53dcdd96ddd75",
        "manifest.json": "bee728eccd5b25540b3bc5bdc50feb0117296653b45321673e2e1a53048b96ef",
        "summary.csv": "e1845461f17ee283600302b28f3dec47c769c4bd0d94be0650b473ac9735278d",
        "report": "0b408b13a2dc9bcc85ca02c55df9c8804b3f2dfc32d4ad911c13e6e23572986b",
    },
    "database": {
        "boundaries.jsonl": "70e3a07bfd749fecff7573671244ba2c8e25968fa0dcf69986abc742ac627b64",
        "episodes.jsonl": "c4006afc4b1891c79fc36ebf74b264b3401c6f0e14fe532df2a20e650ef2f138",
        "manifest.json": "fec25839bb3d8c2f0d243cfb2488d546ee9aa44bf04e9315e0978936dcdb7f68",
        "summary.csv": "9f439b8cfc9cb27d2eff686f153de564ea621d8cb75128b0178748665974b68d",
        "report": "7d24148db9e5b68495ca614461c7974e9931cd14f8d6648f797088dc6f0817d4",
    },
    "trading": {
        "boundaries.jsonl": "01b30db9f6b7a7415f5babef47a78f4d9b3f46fc225d1efc77aa140dc40e49c5",
        "episodes.jsonl": "f450e1d548597260448090965933c4edd8f01d4ffb2b7b2eeee10697bfe6527e",
        "manifest.json": "c2ad7f4fe45ea1028e78f6eb05a983f221813dc16b79b229b4af5f810fd8adeb",
        "summary.csv": "860f2cff792bd34d9a7ab7b5ab98c46c0e8297ab3b71185f40ddd380078c30b3",
        "report": "bc670143548d568bb7d6c6691b34629f192bd6edf5c6fad5e5af632d4fcf4780",
    },
}

# Payments with a conformal envelope: the run calibrates before it gates,
# and the manifest records the fitted inflation and rank.
CONFORMAL_RUN_DIGESTS = {
    "boundaries.jsonl": "130f7d3be3b8bb1b1ea2a5ad960b1e09291349c25e70ebcad3d5546b490fe32a",
    "episodes.jsonl": "1f90482f1c5852139ea0b12b9aa2683ebd17a73ec23913dab39f3af762c0cdf2",
    "manifest.json": "cff572b37ecbb75efe243c0f6141f90c4836b41f3fa6471957dfa3ef0d4ed0c2",
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


@pytest.mark.parametrize("name", sorted(BENCH_SIZE_DIGESTS))
def test_run_and_report_bytes_pinned_at_the_benchmark_size(name, bundled_run, capsys):
    out = bundled_run(name)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    digests = {p.name: _sha256(p.read_bytes()) for p in out.iterdir()}
    digests["report"] = _sha256(capsys.readouterr().out.encode())
    assert digests == BENCH_SIZE_DIGESTS[name]


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
