"""Finite-horizon tabular environments with forced-action rollout semantics.

A model is a layered tree over named states. Components are declared once per
model and flag which parts of a state are externally visible (ledgers, sent
messages, open positions) versus internal bookkeeping. Transition kernels are
indexed by (time, state, action), terminal states carry nonnegative losses,
and a no-op action exists at every decision node so that "do nothing" is
always a priceable alternative. Everything is immutable after construction;
all operations are pure and safe to share across threads.
"""

from __future__ import annotations

import copy
import math
import operator
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import NamedTuple

from .exceptions import (
    ModelValidationError,
    PolicyUndefinedError,
    ScenarioParseError,
    UnreachableNodeError,
    fold,
)

KERNEL_TOL = 1e-12
SIDE_EFFECT_TV_TOL = 1e-12


class Intervention(NamedTuple):
    """A forced action at a (time, state) decision node."""

    time: int
    state: str
    action: str


Kernel = tuple[tuple[str, float], ...]


class EnvironmentModel:
    """Immutable layered-tree environment. Construct via :func:`build_model`;
    derive a variant with :meth:`replaced`."""

    def __init__(
        self,
        horizon: int,
        signatures: Mapping[str, tuple],
        state_order: Sequence[str],
        nodes: Mapping[tuple[int, str], Mapping[str, Kernel]],
        terminal_losses: Mapping[str, float],
        initial_state: str,
        null_action: str,
    ) -> None:
        self.horizon = horizon
        self._signatures = dict(signatures)
        self._state_index = {s: i for i, s in enumerate(state_order)}
        # decision nodes by time, then declared state order: all_nodes' order
        order = sorted(nodes, key=lambda node: (node[0], self._state_index[node[1]]))
        self._nodes = {node: dict(nodes[node]) for node in order}
        self._terminal_losses = dict(terminal_losses)
        self.initial_state = initial_state
        self.null_action = null_action

    def replaced(
        self,
        rows: Mapping[tuple[int, str, str], Mapping[str, float]] | None = None,
        losses: Mapping[str, float] | None = None,
        paths: Mapping[tuple[int, str, str], str] | None = None,
        losses_path: str = "terminal_losses",
    ) -> "EnvironmentModel":
        """This model with the kernel rows ``rows[(t, s, a)]`` and the leaf
        losses ``losses[leaf]`` replaced, each checked by :func:`build_model`'s
        rules; its errors name ``paths[(t, s, a)]`` (else
        ``nodes[t,s].actions[a]``) or ``losses_path``."""
        nodes = dict(self._nodes)
        for (t, s, a), kernel_map in (rows or {}).items():
            self.kernel(t, s, a)  # raises for a key the model lacks
            path = (paths or {}).get((t, s, a), f"nodes[{t},{s}].actions[{a}]")
            row = _kernel_row(kernel_map, self._state_index, f"{path}.kernel")
            _check_targets(row, t, self.horizon, nodes, self._terminal_losses, path)
            nodes[(t, s)] = {**nodes[(t, s)], a: row}
        terminal_losses = dict(self._terminal_losses)
        for leaf in losses or {}:
            self.terminal_loss(leaf)  # likewise
            terminal_losses[leaf] = _terminal_loss(losses, leaf, losses_path)
        variant = copy.copy(self)
        variant._nodes, variant._terminal_losses = nodes, terminal_losses
        return variant

    # -- structure ---------------------------------------------------------

    def has_node(self, time: int, state: str) -> bool:
        return (time, state) in self._nodes

    def all_nodes(self) -> Iterator[tuple[int, str]]:
        return iter(self._nodes)

    def actions(self, time: int, state: str) -> tuple[str, ...]:
        node = self._nodes.get((time, state))
        if node is None:
            raise UnreachableNodeError(f"no decision node at time {time}, state {state!r}")
        return tuple(node.keys())

    def kernel(self, time: int, state: str, action: str) -> Kernel:
        node = self._nodes.get((time, state))
        if node is None:
            raise UnreachableNodeError(f"no decision node at time {time}, state {state!r}")
        try:
            return node[action]
        except KeyError:
            raise UnreachableNodeError(
                f"action {action!r} unavailable at time {time}, state {state!r}"
            ) from None

    @property
    def terminal_states(self) -> tuple[str, ...]:
        names = sorted(self._terminal_losses, key=self._state_index.__getitem__)
        return tuple(names)

    def terminal_loss(self, state: str) -> float:
        try:
            return self._terminal_losses[state]
        except KeyError:
            raise UnreachableNodeError(f"{state!r} is not a terminal state") from None

    @property
    def terminal_losses(self) -> dict[str, float]:
        return dict(self._terminal_losses)

    def state_index(self, state: str) -> int:
        return self._state_index[state]

    def external_signature(self, state: str) -> tuple:
        """The state's external component values, in declaration order."""
        return self._signatures[state]

    # -- dynamics ----------------------------------------------------------

    def effective_next(
        self,
        time: int,
        state: str,
        policy: "Policy",
        forced: str | None = None,
    ) -> Kernel:
        """Next-state law at a node: either a forced action's kernel or the
        policy mixture of kernels. Entries keep canonical state order."""
        if forced is not None:
            return self.kernel(time, state, forced)
        mix: dict[str, float] = {}
        for action, ap in policy.action_dist(time, state):
            if ap <= 0.0:
                continue
            for nxt, tp in self.kernel(time, state, action):
                mix[nxt] = mix.get(nxt, 0.0) + ap * tp
        ordered = sorted(mix.items(), key=lambda kv: self._state_index[kv[0]])
        return tuple(ordered)


class Policy:
    """Probability map (time, state) -> distribution over available actions.

    Every row is checked once, here: each probability finite and >= 0, the
    row summing to 1 within ``KERNEL_TOL``.
    """

    def __init__(self, dist: Mapping[tuple[int, str], Sequence[tuple[str, float]]]) -> None:
        self._dist = {}
        for (t, s), row in dist.items():
            row = tuple(row)
            total = 0.0
            for a, p in row:
                if not (p >= 0 and math.isfinite(p)):
                    raise ModelValidationError(
                        f"policy probability must be finite and >= 0, got {p!r}",
                        path=f"policy[{t},{s}].{a}",
                    )
                total += p
            if abs(total - 1.0) > KERNEL_TOL:
                raise ModelValidationError(
                    f"policy row sums to {total!r}, expected 1", path=f"policy[{t},{s}]"
                )
            self._dist[(t, s)] = row

    @classmethod
    def from_entries(
        cls,
        entries: Mapping[tuple[int, str], Mapping[str, float]],
        model: EnvironmentModel,
    ) -> "Policy":
        dist: dict[tuple[int, str], tuple[tuple[str, float], ...]] = {}
        for (t, s), probs in entries.items():
            avail = model.actions(t, s)
            for a in probs:
                if a not in avail:
                    raise ModelValidationError(
                        f"policy puts mass on unavailable action {a!r}",
                        path=f"policy[{t},{s}]",
                    )
            # sorted, so a row does not depend on the key order of its document
            dist[(t, s)] = tuple((a, float(probs[a])) for a in sorted(probs))
        return cls(dist)

    @classmethod
    def deterministic(cls, choices: Mapping[tuple[int, str], str]) -> "Policy":
        return cls({node: ((action, 1.0),) for node, action in choices.items()})

    def action_dist(self, time: int, state: str) -> tuple[tuple[str, float], ...]:
        try:
            return self._dist[(time, state)]
        except KeyError:
            raise PolicyUndefinedError(
                f"policy undefined at time {time}, state {state!r}"
            ) from None


class SafeDefaultMap:
    """Fixed map (time, state, action) -> substitute action.

    Actions without an explicit entry default to themselves, which keeps the
    map total and idempotent. The map is frozen at construction; re-querying
    never changes an answer.
    """

    def __init__(self, entries: Mapping[tuple[int, str, str], str]) -> None:
        self._entries = dict(entries)

    @classmethod
    def from_entries(
        cls,
        entries: Mapping[tuple[int, str, str], str],
        model: EnvironmentModel,
    ) -> "SafeDefaultMap":
        for (t, s, a), d in entries.items():
            avail = model.actions(t, s)
            if a not in avail:
                raise ModelValidationError(
                    f"safe default declared for unavailable action {a!r}",
                    path=f"safe_defaults[{t},{s},{a}]",
                )
            if d not in avail:
                raise ModelValidationError(
                    f"safe default {d!r} is not available at the same node",
                    path=f"safe_defaults[{t},{s},{a}]",
                )
        sdm = cls(entries)
        for (t, s, a), d in entries.items():
            if sdm.default_for(t, s, d) != d:
                raise ModelValidationError(
                    f"safe default {d!r} must map to itself",
                    path=f"safe_defaults[{t},{s},{a}]",
                )
        return sdm

    def default_for(self, time: int, state: str, action: str) -> str:
        return self._entries.get((time, state, action), action)


# ---------------------------------------------------------------------------
# construction


def read_field(rec: Mapping, key: str, conv: Callable, path: str):
    """``conv(rec[key])``; a missing or unconvertible field raises a
    :class:`ScenarioParseError` naming ``path.key`` (``key`` at the top
    level, where ``path`` is empty)."""
    try:
        return conv(rec[key])
    except KeyError:
        message = f"missing field {key!r}"
    except (TypeError, ValueError, AttributeError) as exc:
        message = f"malformed field {key!r}: {exc}"
    raise ScenarioParseError(message, path=f"{path}.{key}" if path else key)


def optional_field(rec: Mapping, key: str, conv: Callable, path: str, default):
    """:func:`read_field` for a field that may be absent."""
    return read_field(rec, key, conv, path) if key in rec else default


def as_int(value) -> int:
    """Converter for :func:`read_field`: a JSON integer. An integral float
    such as ``2.0`` counts; a bool, a string or a fraction does not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def as_bool(value) -> bool:
    """Converter for :func:`read_field`: a JSON boolean."""
    if not isinstance(value, bool):
        raise TypeError(f"expected a boolean, got {value!r}")
    return value


def as_str(value) -> str:
    """Converter for :func:`read_field`: a JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def as_number(value) -> float:
    """Converter for :func:`read_field`: a JSON number, as a float. A bool
    or a string does not count, nor an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value} is too large for a float") from None


def as_object(value) -> dict:
    """Shape converter for :func:`read_field`: a JSON object."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def as_objects(value) -> list:
    """Shape converter for :func:`read_field`: a JSON array of objects."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise TypeError("expected an array of objects")
    return value


def _component_values(value) -> dict:
    """A state's components: a JSON object of scalars, which key the
    external signature."""
    rec = dict(as_object(value))
    for name, v in rec.items():
        if isinstance(v, (list, dict)):
            raise TypeError(f"component {name!r} must be a scalar")
    return rec


def _kernel_row(kernel_map: Mapping, state_index: Mapping[str, int], path: str) -> Kernel:
    """A kernel row: an object over known states whose probabilities are
    finite, >= 0 and sum to 1 within ``KERNEL_TOL``, kept in state order.
    Errors name ``path``, the row's ``kernel`` field."""
    if not kernel_map:
        raise ModelValidationError("empty kernel row", path=path)
    row = []
    total = 0.0
    for nxt in kernel_map:
        if nxt not in state_index:
            raise ModelValidationError(f"kernel targets unknown state {nxt!r}", path=path)
        p = read_field(kernel_map, nxt, as_number, path)
        if not (p >= 0 and math.isfinite(p)):
            raise ModelValidationError(
                f"kernel probability must be finite and >= 0, got {p!r}",
                path=f"{path}.{nxt}",
            )
        row.append((nxt, p))
        total += p
    if abs(total - 1.0) > KERNEL_TOL:
        raise ModelValidationError(f"kernel row sums to {total!r}, expected 1", path=path)
    row.sort(key=lambda kv: state_index[kv[0]])
    return tuple(row)


def _check_targets(
    row: Kernel, t: int, horizon: int, nodes: Mapping, losses: Mapping, path: str
) -> None:
    """Every positive-mass target of a row at time ``t`` is a decision node
    at ``t + 1``, or, at the last decision layer, a leaf with a loss."""
    for nxt, p in row:
        if p <= 0.0:
            continue
        if t + 1 == horizon:
            if nxt not in losses:
                raise ModelValidationError(f"leaf state {nxt!r} has no terminal loss", path=path)
        elif (t + 1, nxt) not in nodes:
            raise ModelValidationError(
                f"kernel targets {nxt!r} but no node exists at time {t + 1}", path=path
            )


def _terminal_loss(raw_losses: Mapping, sid: str, path: str) -> float:
    """``raw_losses[sid]`` as a finite loss >= 0; errors name ``path``."""
    loss = read_field(raw_losses, sid, as_number, path)
    if not (loss >= 0 and math.isfinite(loss)):
        raise ModelValidationError(
            f"terminal loss must be finite and >= 0, got {loss!r}", path=f"{path}[{sid}]"
        )
    return loss


def build_model(spec: Mapping) -> EnvironmentModel:
    """Build and validate an :class:`EnvironmentModel` from a plain dict.

    Expected keys: ``horizon``, ``components``, ``states``, ``nodes``,
    ``terminal_losses``, ``initial_state``; optional ``null_action``
    (default ``"noop"``). Safe defaults are declared at the scenario's top
    level, not here. Construction is deterministic; errors name fields by
    their path within ``spec`` (``nodes[1].time``), which the scenario
    loader roots at ``model``.
    """
    horizon = read_field(spec, "horizon", as_int, "")
    if horizon < 1:
        raise ModelValidationError(f"horizon must be >= 1, got {horizon}", path="horizon")

    external: list[str] = []
    for i, c in enumerate(optional_field(spec, "components", as_objects, "", [])):
        name = read_field(c, "name", as_str, f"components[{i}]")
        if optional_field(c, "external", as_bool, f"components[{i}]", False):
            external.append(name)

    # Each state keeps only its external signature, which is all the model
    # reads of its components.
    signatures: dict[str, tuple] = {}
    state_order: list[str] = []
    for i, rec in enumerate(optional_field(spec, "states", as_objects, "", [])):
        path = f"states[{i}]"
        sid = read_field(rec, "id", as_str, path)
        if sid in signatures:
            raise ModelValidationError(f"duplicate state id {sid!r}", path=path)
        comps = optional_field(rec, "components", _component_values, path, {})
        signatures[sid] = tuple(comps.get(name) for name in external)
        state_order.append(sid)
    state_index = {sid: i for i, sid in enumerate(state_order)}

    null_action = optional_field(spec, "null_action", as_str, "", "noop")

    nodes: dict[tuple[int, str], dict[str, Kernel]] = {}
    for i, nrec in enumerate(optional_field(spec, "nodes", as_objects, "", [])):
        path = f"nodes[{i}]"
        t = read_field(nrec, "time", as_int, path)
        s = read_field(nrec, "state", as_str, path)
        if not 0 <= t < horizon:
            raise ModelValidationError(f"node time {t} outside horizon", path=path)
        if s not in signatures:
            raise ModelValidationError(f"unknown state {s!r}", path=path)
        if (t, s) in nodes:
            raise ModelValidationError(f"duplicate node ({t}, {s!r})", path=path)
        actions: dict[str, Kernel] = {}
        action_recs = optional_field(nrec, "actions", as_object, path, {})
        for a in action_recs:
            arec = read_field(action_recs, a, as_object, f"{path}.actions")
            apath = f"{path}.actions[{a}]"
            kernel_map = optional_field(arec, "kernel", as_object, apath, {})
            actions[a] = _kernel_row(kernel_map, state_index, f"{apath}.kernel")
        if not actions:
            raise ModelValidationError("node has an empty action set", path=path)
        if null_action not in actions:
            raise ModelValidationError(
                f"null action {null_action!r} missing from node", path=path
            )
        nodes[(t, s)] = actions

    terminal_losses: dict[str, float] = {}
    raw_losses = optional_field(spec, "terminal_losses", as_object, "", {})
    for sid in raw_losses:
        if sid not in signatures:
            raise ModelValidationError(
                f"terminal loss for unknown state {sid!r}", path=f"terminal_losses[{sid}]"
            )
        terminal_losses[sid] = _terminal_loss(raw_losses, sid, "terminal_losses")

    initial_state = optional_field(spec, "initial_state", as_str, "", next(iter(state_order), ""))
    if (0, initial_state) not in nodes:
        what = "has no decision node at time 0" if initial_state in signatures else "unknown"
        raise ModelValidationError(f"initial state {initial_state!r} {what}", path="initial_state")

    for (t, s), actions in nodes.items():
        for a, row in actions.items():
            _check_targets(row, t, horizon, nodes, terminal_losses, f"nodes[{t},{s}].actions[{a}]")

    return EnvironmentModel(
        horizon=horizon,
        signatures=signatures,
        state_order=state_order,
        nodes=nodes,
        terminal_losses=terminal_losses,
        initial_state=initial_state,
        null_action=null_action,
    )


def safe_default_entry(rec: Mapping, path: str) -> tuple[tuple[int, str, str], str]:
    """One safe-default record as ``((time, state, action), default)``."""
    key = (
        read_field(rec, "time", as_int, path),
        read_field(rec, "state", as_str, path),
        read_field(rec, "action", as_str, path),
    )
    return key, read_field(rec, "default", as_str, path)


# ---------------------------------------------------------------------------
# operations


def _check_intervention(model: EnvironmentModel, iv: Intervention) -> None:
    if not model.has_node(iv.time, iv.state):
        raise UnreachableNodeError(
            f"intervention at time {iv.time}, state {iv.state!r} is not a model node"
        )
    if iv.action not in model.actions(iv.time, iv.state):
        raise UnreachableNodeError(
            f"intervention action {iv.action!r} unavailable at ({iv.time}, {iv.state!r})"
        )


def is_side_effect_bearing(
    model: EnvironmentModel, time: int, state: str, action: str
) -> bool:
    """True iff the next-state law restricted to external components differs
    from the null action's law by more than SIDE_EFFECT_TV_TOL in total
    variation."""
    marginal = _external_marginal(model, model.kernel(time, state, action))
    null_marginal = _external_marginal(model, model.kernel(time, state, model.null_action))
    support = set(marginal) | set(null_marginal)
    tv = 0.5 * fold(abs(marginal.get(k, 0.0) - null_marginal.get(k, 0.0)) for k in support)
    return tv > SIDE_EFFECT_TV_TOL


def _external_marginal(model: EnvironmentModel, kernel: Kernel) -> dict[tuple, float]:
    out: dict[tuple, float] = {}
    for nxt, p in kernel:
        sig = model.external_signature(nxt)
        out[sig] = out.get(sig, 0.0) + p
    return out
