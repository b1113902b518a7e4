"""Shared tiny models used across the test modules."""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest
from hypothesis import settings

from tollgate.envmodel import Policy, build_model

# Property tests draw the same examples on every run and keep no example
# database on disk. Hypothesis still caches each test module's literal
# constants under its storage directory, whatever the profile says, so that
# directory is a temporary one for the session, named before any test runs.
_HYPOTHESIS_STORAGE = tempfile.mkdtemp(prefix="tollgate-hypothesis-")
os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _HYPOTHESIS_STORAGE
settings.register_profile("tollgate", derandomize=True, database=None)
settings.load_profile("tollgate")


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HYPOTHESIS_STORAGE, ignore_errors=True)


@pytest.fixture
def coin_model():
    """Single step: one action splits evenly between losses 0 and 1."""
    return build_model(
        {
            "horizon": 1,
            "components": [{"name": "x", "external": True}],
            "states": [
                {"id": "start", "components": {"x": 0}},
                {"id": "win", "components": {"x": 0}},
                {"id": "lose", "components": {"x": 1}},
            ],
            "initial_state": "start",
            "nodes": [
                {"time": 0, "state": "start", "actions": {
                    "flip": {"kernel": {"win": 0.5, "lose": 0.5}},
                    "noop": {"kernel": {"win": 1.0}},
                }},
            ],
            "terminal_losses": {"win": 0.0, "lose": 1.0},
        }
    )


@pytest.fixture
def chain_model():
    """Deterministic two-step chain ending at loss 5."""
    return build_model(
        {
            "horizon": 2,
            "components": [{"name": "x", "external": True}],
            "states": [
                {"id": "a", "components": {"x": 0}},
                {"id": "b", "components": {"x": 1}},
                {"id": "c", "components": {"x": 2}},
            ],
            "initial_state": "a",
            "nodes": [
                {"time": 0, "state": "a", "actions": {"noop": {"kernel": {"b": 1.0}}}},
                {"time": 1, "state": "b", "actions": {"noop": {"kernel": {"c": 1.0}}}},
            ],
            "terminal_losses": {"c": 5.0},
        }
    )


@pytest.fixture
def bernoulli_sum_model():
    """Two independent fair increments; terminal loss is their sum."""
    return build_model(
        {
            "horizon": 2,
            "components": [{"name": "total", "external": True}],
            "states": [
                {"id": "s", "components": {"total": 0}},
                {"id": "sum0", "components": {"total": 0}},
                {"id": "sum1", "components": {"total": 1}},
                {"id": "total0", "components": {"total": 0}},
                {"id": "total1", "components": {"total": 1}},
                {"id": "total2", "components": {"total": 2}},
            ],
            "initial_state": "s",
            "nodes": [
                {"time": 0, "state": "s", "actions": {
                    "noop": {"kernel": {"sum0": 0.5, "sum1": 0.5}},
                }},
                {"time": 1, "state": "sum0", "actions": {
                    "noop": {"kernel": {"total0": 0.5, "total1": 0.5}},
                }},
                {"time": 1, "state": "sum1", "actions": {
                    "noop": {"kernel": {"total1": 0.5, "total2": 0.5}},
                }},
            ],
            "terminal_losses": {"total0": 0.0, "total1": 1.0, "total2": 2.0},
        }
    )


@pytest.fixture
def noop_policy():
    def make(model):
        return Policy.from_entries(
            {(t, s): {"noop": 1.0} for t, s in model.all_nodes()}, model
        )

    return make


@pytest.fixture
def reference_values():
    """The per-valuation backward recursion the engine memoises: a fresh
    memo per call, post-order, the node at ``forced`` taking its forced
    action. Shared and fresh engine values must equal it bit for bit."""
    from tollgate.risk import _sigma

    def values(model, cont, spec, start, forced=None):
        memo = {}

        def node_value(t, s):
            if (t, s) in memo:
                return memo[(t, s)]
            if t == model.horizon:
                v = model.terminal_loss(s)
            else:
                at_forced = forced is not None and (t, s) == (forced.time, forced.state)
                force = forced.action if at_forced else None
                children = [
                    (node_value(t + 1, nxt), p)
                    for nxt, p in model.effective_next(t, s, cont, forced=force)
                    if p > 0.0
                ]
                v = _sigma(spec, [c for c, _ in children], [p for _, p in children])
            memo[(t, s)] = float(v)
            return memo[(t, s)]

        node_value(*start)
        return memo

    return values
