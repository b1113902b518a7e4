"""Byte identity of run artifacts, report and verify output for fixed seeds.

For a fixed (scenario, seed) every artifact must stay byte for byte the
same. The digests below pin the float output of the current toolchain; a
change that re-baselines on purpose updates them and says why.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import importlib.util
import json
import math
import pkgutil
from pathlib import Path

import pytest

import tollgate
from tollgate.cli import main
from tollgate.scenario import bundled_scenario_path

RUN_DIGESTS = {
    "payments": {
        "boundaries.jsonl": "12bfb46482d6d96f7a03a49ded84e391dc195835eaf9192d256827246bf275e2",
        "episodes.jsonl": "72517ee83b90353842cc4ee0d54a01e5a464661b5c4aa9d4eb1e25d80339f9b1",
        "manifest.json": "e68b8a7fb202f05b50d21aad96267760695f56d41fd69b4cc7137b129ae05415",
        "summary.csv": "1f82adfdf982d1a1604f7da737a216e8730c64531d03ab650268580af4462abe",
        "report": "a02e55a9a77c272bebdc7d1bf1114cacc25eed896622219eb18c79c7fb121f99",
    },
    "database": {
        "boundaries.jsonl": "73493aca3b9f0ab7dad5bd0b5c5e0660afd2c56872e9d98444a1b24a831802dc",
        "episodes.jsonl": "f4dad07c6bb7dc25a03af33966743efd55794b6c939c7d129b769075240338e1",
        "manifest.json": "9e98396a8bb5f316fe8d72ab5e3bcfc503343f92a72e887f05e16403e20adaac",
        "summary.csv": "5c068c13c6751c2971c8263e07cee7999cbb5a8de0c7b787912eb1ca9316e82b",
        "report": "77e772b51d0d317a96155623bfd560ade47b6bb8cd1432b767f9f3e3fc2ac6f0",
    },
    "trading": {
        "boundaries.jsonl": "2aa674f6539e3ec35baa92521cf2949e33f5c07d506327c69f200d37424d5894",
        "episodes.jsonl": "eaf7c6841c42b63d7308a6f89fd4d10e0dbc3fcc07105b7423dce4e34beab7ac",
        "manifest.json": "1b52194c2a986e084db4ffb590bf8dfc90ea3c73e0eca5b8be649c584a38d204",
        "summary.csv": "a8c73631b7ce05c6c8fd2a22909219cb6823dba6abad0bba3ed00373ab3203fb",
        "report": "b831954d9f001e1425ecaecae698cbff74c05ac95cfa0676f3fcbc020dd42e4e",
    },
}

# The shared bundled runs at the benchmark's size, 5,000 episodes at seed 1
# (see conftest.py), and their reports. Most of their lines repeat an earlier
# line but for the episode, and most episodes an earlier episode's path, so
# these reports go through the readers' line memo and the audit's path memo.
BENCH_SIZE_DIGESTS = {
    "payments": {
        "boundaries.jsonl": "0eef7afae7164f6759ba272ea6db2ca11283a8f7fe167d97cbab4fd6f32de7d5",
        "episodes.jsonl": "afff99d45b205707d0c4520ea1cb9a256f0a14e2ff3e9cdc1ea1d67af707e7c9",
        "manifest.json": "bee728eccd5b25540b3bc5bdc50feb0117296653b45321673e2e1a53048b96ef",
        "summary.csv": "1c638d47c3a12e124c7fae10613e369ab7c879423a9b4fa86dae220e201a25e9",
        "report": "ad189dca99830aa44b7b514734c8b2cca5b45df9373f9a9e5bc9e48ae68fb284",
    },
    "database": {
        "boundaries.jsonl": "70e3a07bfd749fecff7573671244ba2c8e25968fa0dcf69986abc742ac627b64",
        "episodes.jsonl": "c1ac6667b5271b3bce218fd0235ae381a023a47eabe23ddc69be3a463eb617ab",
        "manifest.json": "fec25839bb3d8c2f0d243cfb2488d546ee9aa44bf04e9315e0978936dcdb7f68",
        "summary.csv": "b5324d04eab521bb1f65ac0ed1844d87d207f416da7e727eb6a1331b5138be25",
        "report": "7d24148db9e5b68495ca614461c7974e9931cd14f8d6648f797088dc6f0817d4",
    },
    "trading": {
        "boundaries.jsonl": "01b30db9f6b7a7415f5babef47a78f4d9b3f46fc225d1efc77aa140dc40e49c5",
        "episodes.jsonl": "6447d1deb42aa0e8219d67aa875cd63d9864c7682f072a250d25763053bde705",
        "manifest.json": "c2ad7f4fe45ea1028e78f6eb05a983f221813dc16b79b229b4af5f810fd8adeb",
        "summary.csv": "0018b91073a80e871295ac42bb85650579674f2884033d928b12a2f848c6b471",
        "report": "6dbc34b31518be22caeba8fb214cfdd0d57c221754c2fb9808571d6f90c4675f",
    },
}

# Payments with a conformal envelope: the run calibrates before it gates,
# and the manifest records the fitted inflation and rank.
CONFORMAL_RUN_DIGESTS = {
    "boundaries.jsonl": "c5d478fa147a5fb2de112136d50cba2626823cd751cf76faa740a048f4d307e0",
    "episodes.jsonl": "8034151471232b23c8720d4d1f9d71f7f5c3b79b8c0367b3acbb3c9ac27e0806",
    "manifest.json": "c1a4129731aaf5d4d406980f09d30f92dbcb1a66c6b257e7f78b5ebc57438b4e",
    "summary.csv": "422a66b9eddec0477f24eac4e00599bba00408f4d04791ef383d1cc8012fa680",
    "report": "ef251cee2e565d8e14c764f27a0c262cbd769c3f41fa249ad9b984e7b38f6b29",
}

CALIBRATION_DIGESTS = {
    "calibration.csv": "8c0d5cb3366fcfc82271575e8fde3faba245bbe5d4f829f7f90787efb2bf4834",
    "envelope.json": "a596f990e447cbe3ff16dc52b36b74ca86c4eeb97cb24b5d87a0e5051c3b4613",
}

VERIFY_DIGESTS = {
    "time-consistency": "651b555707cf77a514da044fa63316450c656dc888e8c7ff6d0e3dc0339167ca",
    "cvar-demo": "2b3fabea527e08ed40652780a0436c0da7525e10141167ee5160a733eeab2719",
    "no-splitting": "2628751b089faaf3382355bf6fd56623b8ef20d91bb16db69618279e85b65336",
    "iap": "f5bf9c043e56607c4b45cd80d3fbd2578efddaa84399812930ffc331255c9fd1",
    "gating": "0fae5bb6d3581d3e3fa5006a95acf9ab286fd023cd59e82b6ab0885a2b818b6a",
    "all": "96da9c3286283e530ccbe313ec8876df764b1b12e0430dba412b4bb9be52c5bb",
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


def _compensated_sum(values, start=0):
    """The builtin ``sum()`` as Python 3.12 and later add floats: with
    Neumaier's compensation, which moves the last bit of some sums."""
    total, lost = start, 0.0
    for v in values:
        t = total + v
        lost += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + lost if lost and math.isfinite(lost) else total


def _expectation_ladder(path: Path) -> Path:
    """A small seeded ladder of the benchmark, priced by expectation, whose
    one-step values are plain float sums."""
    bench = Path(__file__).resolve().parents[1] / "bench" / "ladder.py"
    spec = importlib.util.spec_from_file_location("bench_ladder", bench)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    doc = ladder.ladder_document(3, 10, 1)
    doc["risk"] = {"kind": "expectation"}
    path.write_text(json.dumps(doc))
    return path


def test_pinned_bytes_hold_under_a_compensated_sum(
    tmp_path, capsys, monkeypatch, fresh_bundled_run
):
    # every float sum of the package is a left fold or an exact fsum, so a
    # compensated sum(), as from Python 3.12 on, moves no byte of any output
    ladder = _expectation_ladder(tmp_path / "ladder.scn.json")
    builtin = _run_and_report_digests(str(ladder), tmp_path / "ladder-builtin", capsys)
    for info in pkgutil.iter_modules(tollgate.__path__, "tollgate."):
        module = importlib.import_module(info.name)
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert _run_and_report_digests(str(ladder), tmp_path / "ladder", capsys) == builtin
    for name in RUN_DIGESTS:
        test_run_and_report_bytes_pinned(name, tmp_path, capsys)
    for name in BENCH_SIZE_DIGESTS:
        test_run_and_report_bytes_pinned_at_the_benchmark_size(name, fresh_bundled_run, capsys)
    test_conformal_run_and_report_bytes_pinned(tmp_path, capsys)
    test_calibrate_bytes_pinned(tmp_path)
    capsys.readouterr()
    for suite in VERIFY_DIGESTS:
        test_verify_stdout_pinned(suite, capsys)


def test_no_builtin_sum_is_called():
    # the test above sees only the sums its outputs reach
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(tollgate.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert calls == []
