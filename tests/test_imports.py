"""Each module loads only what it runs: every module imports on its own, the
gate reaches the pricing tier only through the envelope it is handed, no
runtime module loads the code that checks it, and the oracle stays
independent of the engine it cross-checks."""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(
    "tollgate" + ("" if path.stem == "__init__" else "." + path.stem)
    for path in (SRC / "tollgate").glob("*.py")
)
# the modules only ``verify`` runs, which ``cli`` loads through ``verify``;
# every other module is a runtime module of ``run``, ``report`` and ``calibrate``
CHECKERS = {"tollgate.oracle", "tollgate.instances", "tollgate.verify"}
RUNTIME = [module for module in MODULES if module not in CHECKERS | {"tollgate.cli"}]


def _fresh(code: str) -> frozenset[str]:
    """The words that ``code`` prints in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return frozenset(done.stdout.split())


@functools.cache
def _loaded(module: str) -> frozenset[str]:
    """The package modules a fresh interpreter holds after importing
    ``module`` alone."""
    return _fresh(
        f"import sys, {module}; "
        "print(*(m for m in sys.modules if m == 'tollgate' or m.startswith('tollgate.')))"
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    assert module in _loaded(module)


def test_gate_loads_no_pricing_module():
    assert _loaded("tollgate.gate") == {
        "tollgate",
        "tollgate.boundary",
        "tollgate.exceptions",
        "tollgate.gate",
    }


@pytest.mark.parametrize("module", RUNTIME)
def test_runtime_module_loads_no_checker_module(module):
    assert not _loaded(module) & CHECKERS


def test_oracle_loads_no_engine_module():
    engine = {"risk", "tolls", "envelope", "gate", "scenario"}
    assert not _loaded("tollgate.oracle") & {"tollgate." + name for name in engine}


def test_cli_loads_neither_dataclasses_nor_inspect():
    # every command pays for what the CLI imports before it does any work;
    # verify loads pickle only when it forks its suites, and never a pool
    unwanted = "{'dataclasses', 'inspect', 'pickle', 'multiprocessing', 'concurrent'}"
    assert not _fresh(f"import sys, tollgate.cli; print(*{unwanted} & set(sys.modules))")
