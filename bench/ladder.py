"""Seeded synthetic "ladder" scenario: a wide layered tree where exact
pricing dominates a run.

The document is plain scenario JSON (schema version 1). ``tollgate run
--scenario <file>`` receives only this document; nothing else about the
generator reaches the program.

Shape, for ``horizon`` H and ``width`` W:

* layer 0 holds the initial state, layers 1..H-1 hold W decision states
  each, layer H holds W leaves whose loss grows with the leaf index;
* every decision node offers four actions: ``noop``, a self-mapped
  ``safe`` that drifts toward low-loss states, and two risky actions
  (``risk_a``, ``risk_b``) that drift toward high-loss states and whose
  safe default is ``safe``;
* every kernel row has support 5;
* risk is entropic, and one boundary carries exposure on the risky actions;
* the budget is tight enough that a few percent of steps downgrade.

Why the default size (6 x 80, 300 episodes) makes pricing dominate: the
exact envelope prices each distinct (time, state, action) key with two
backward sweeps over the subtree below the node, and a node's subtree
reaches up to W states per layer through 20 (action, target) branches each.
300 episodes price roughly 680 distinct keys, each cold once per process
(``report`` prices every key again with a fresh cache), so the risk
recursion takes about two thirds of the run and report time while sampling
1,800 gate steps takes a few percent. A wider or deeper ladder raises the
pricing share further; a narrower one lets import and sampling catch up.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ACTIONS = ("noop", "safe", "risk_a", "risk_b")
SUPPORT = 5
GAMMA = 0.5
MAX_LOSS = 10.0
BUDGET_PER_STEP = 1.2

# Drift of each action's kernel window, as a share of the layer width.
_DRIFT = {"noop": 0.0, "safe": -0.15, "risk_a": 0.2, "risk_b": 0.35}


def _state(layer: int, index: int) -> str:
    return f"s{layer}_{index}"


def _leaf(index: int) -> str:
    return f"leaf_{index}"


def _kernel(rng: random.Random, center: float, width: int, targets: list[str]) -> dict:
    lo = min(max(int(round(center)) - SUPPORT // 2, 0), width - SUPPORT)
    window = list(range(lo, lo + SUPPORT))
    raw = [rng.random() + 0.05 for _ in window]
    total = sum(raw)
    probs = [r / total for r in raw]
    probs[-1] = 1.0 - sum(probs[:-1])
    return {targets[i]: p for i, p in zip(window, probs)}


def ladder_document(horizon: int = 6, width: int = 80, seed: int = 0) -> dict:
    """Scenario document for an ``horizon`` x ``width`` ladder drawn from
    ``seed``. The same arguments always give the same document."""
    if horizon < 2 or width < SUPPORT:
        raise ValueError(f"ladder needs horizon >= 2 and width >= {SUPPORT}")
    rng = random.Random(seed)
    layers = [[_state(0, 0)]]
    layers += [[_state(t, i) for i in range(width)] for t in range(1, horizon)]
    layers.append([_leaf(i) for i in range(width)])

    states = []
    for t, layer in enumerate(layers):
        for i, sid in enumerate(layer):
            zone = "hot" if i >= width // 2 else "cold"
            states.append({"id": sid, "components": {"ledger": zone, "step": t}})

    nodes, policy, safe_defaults = [], [], []
    for t in range(horizon):
        targets = layers[t + 1]
        for i, sid in enumerate(layers[t]):
            base = i if t > 0 else width / 2
            actions = {}
            for a in ACTIONS:
                center = base + _DRIFT[a] * width + rng.uniform(-0.1, 0.1) * width
                actions[a] = {"kernel": _kernel(rng, center, width, targets)}
                if a.startswith("risk"):
                    actions[a]["exposure"] = {"desk": [1.0]}
            nodes.append({"time": t, "state": sid, "actions": actions})
            raw = [rng.random() + 0.2 for _ in ACTIONS]
            total = sum(raw)
            probs = [r / total for r in raw]
            probs[-1] = 1.0 - sum(probs[:-1])
            policy.append({"time": t, "state": sid, "probs": dict(zip(ACTIONS, probs))})
            for a in ("safe", "risk_a", "risk_b"):
                safe_defaults.append({"time": t, "state": sid, "action": a, "default": "safe"})

    losses = {
        _leaf(i): MAX_LOSS * (i / (width - 1)) ** 2 + rng.uniform(0.0, 0.5)
        for i in range(width)
    }
    return {
        "schema_version": 1,
        "name": f"ladder-{horizon}x{width}-s{seed}",
        "description": "Synthetic layered tree for benchmarking exact pricing.",
        "seed": seed,
        "model": {
            "horizon": horizon,
            "components": [
                {"name": "ledger", "external": True},
                {"name": "step", "external": False},
            ],
            "states": states,
            "initial_state": layers[0][0],
            "null_action": "noop",
            "nodes": nodes,
            "terminal_losses": losses,
        },
        "safe_defaults": safe_defaults,
        "policy": policy,
        "risk": {"kind": "entropic", "gamma": GAMMA},
        "boundaries": [
            {
                "id": "desk",
                "dimension": 1,
                "potential": {"kind": "linear", "weights": [0.5]},
                "outside_state": "desk=synthetic",
            }
        ],
        "gate": {
            "initial_budget": BUDGET_PER_STEP * horizon,
            "fallback_order": ["downgrade", "block"],
            "escalation_policy": {},
        },
        "envelope": {"kind": "exact"},
        "action_categories": {"noop": "idle", "safe": "safe", "risk_a": "risky", "risk_b": "risky"},
    }


def write_ladder(path: Path, horizon: int, width: int, seed: int) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ladder_document(horizon, width, seed), sort_keys=True) + "\n")
    return path
