"""Built-in irreversibility-witness instances.

The primary instance prices an invoice-payment agent: wiring funds now
versus drafting a payment for approval. An exogenous fraud flag moves both
rollouts together; wiring into fraud loses the funds while drafting gets
caught in review, so the executed branch carries a large loss gap exactly on
the fraud event, recall can claw back only a sliver of it, and the default
branch still sees the event with positive probability. Variants flip each
certificate condition off individually, and a randomised family of the same
shape feeds the structural property suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .envmodel import EnvironmentModel, Policy, SafeDefaultMap, build_model
from .tolls import AmbiguitySet, WitnessSpec

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class WitnessCase:
    """Everything verify_witness and the authority checks need, bundled."""

    ambiguity: AmbiguitySet
    time: int
    state: str
    action: str
    base_actions: tuple[str, ...]
    cont: Policy
    sdm: SafeDefaultMap
    witness: WitnessSpec


def _payment_model_spec(
    fraud_prob: float,
    loss_lost: float,
    loss_recall: float,
    loss_review: float,
    loss_recalled_clean: float = 0.5,
    loss_idle: float = 2.0,
    include_legacy: bool = False,
    legacy_loss: float = 30.0,
) -> dict:
    f = fraud_prob
    states = [
        {"id": "start", "components": {"phase": "idle", "funds_out": 0, "fraud": 0}},
        # fraud variants listed before clear ones so the shared-uniform
        # coupling moves the fraud flag identically across forced actions
        {"id": "wired_fraud", "components": {"phase": "wired", "funds_out": 1, "fraud": 1}},
        {"id": "draft_fraud", "components": {"phase": "drafted", "funds_out": 0, "fraud": 1}},
        {"id": "idle_fraud", "components": {"phase": "idle", "funds_out": 0, "fraud": 1}},
        {"id": "wired_clear", "components": {"phase": "wired", "funds_out": 1, "fraud": 0}},
        {"id": "draft_clear", "components": {"phase": "drafted", "funds_out": 0, "fraud": 0}},
        {"id": "idle_clear", "components": {"phase": "idle", "funds_out": 0, "fraud": 0}},
        {"id": "funds_lost", "components": {"phase": "done", "funds_out": 1, "fraud": 1}},
        {"id": "recall_shortfall", "components": {"phase": "done", "funds_out": 1, "fraud": 1}},
        {"id": "review_flagged", "components": {"phase": "done", "funds_out": 0, "fraud": 1}},
        {"id": "fraud_averted", "components": {"phase": "done", "funds_out": 0, "fraud": 1}},
        {"id": "funds_settled", "components": {"phase": "done", "funds_out": 1, "fraud": 0}},
        {"id": "wire_recalled", "components": {"phase": "done", "funds_out": 1, "fraud": 0}},
        {"id": "invoice_pending", "components": {"phase": "done", "funds_out": 0, "fraud": 0}},
        {"id": "nothing_done", "components": {"phase": "done", "funds_out": 0, "fraud": 0}},
    ]
    start_actions = {
        "wire_transfer": {"kernel": {"wired_fraud": f, "wired_clear": 1 - f}},
        "draft_payment": {"kernel": {"draft_fraud": f, "draft_clear": 1 - f}},
        "noop": {"kernel": {"idle_fraud": f, "idle_clear": 1 - f}},
    }
    nodes = [
        {"time": 0, "state": "start", "actions": start_actions},
        {"time": 1, "state": "wired_fraud", "actions": {
            "release": {"kernel": {"funds_lost": 1.0}},
            "recall": {"kernel": {"recall_shortfall": 1.0}},
            "noop": {"kernel": {"funds_lost": 1.0}},
        }},
        {"time": 1, "state": "wired_clear", "actions": {
            "release": {"kernel": {"funds_settled": 1.0}},
            "recall": {"kernel": {"wire_recalled": 1.0}},
            "noop": {"kernel": {"funds_settled": 1.0}},
        }},
        {"time": 1, "state": "draft_fraud", "actions": {
            "noop": {"kernel": {"review_flagged": 1.0}},
        }},
        {"time": 1, "state": "draft_clear", "actions": {
            "noop": {"kernel": {"invoice_pending": 1.0}},
        }},
        {"time": 1, "state": "idle_fraud", "actions": {
            "noop": {"kernel": {"fraud_averted": 1.0}},
        }},
        {"time": 1, "state": "idle_clear", "actions": {
            "noop": {"kernel": {"nothing_done": 1.0}},
        }},
    ]
    losses = {
        "funds_lost": loss_lost,
        "recall_shortfall": loss_recall,
        "review_flagged": loss_review,
        "fraud_averted": 0.0,
        "funds_settled": 0.0,
        "wire_recalled": loss_recalled_clean,
        "invoice_pending": 0.0,
        "nothing_done": loss_idle,
    }
    if include_legacy:
        states.extend([
            {"id": "batch_fraud", "components": {"phase": "batched", "funds_out": 1, "fraud": 1}},
            {"id": "batch_clear", "components": {"phase": "batched", "funds_out": 1, "fraud": 0}},
            {"id": "batch_lost", "components": {"phase": "done", "funds_out": 1, "fraud": 1}},
            {"id": "batch_done", "components": {"phase": "done", "funds_out": 1, "fraud": 0}},
        ])
        start_actions["legacy_batch"] = {"kernel": {"batch_fraud": f, "batch_clear": 1 - f}}
        nodes.extend([
            {"time": 1, "state": "batch_fraud", "actions": {
                "noop": {"kernel": {"batch_lost": 1.0}},
            }},
            {"time": 1, "state": "batch_clear", "actions": {
                "noop": {"kernel": {"batch_done": 1.0}},
            }},
        ])
        losses["batch_lost"] = legacy_loss
        losses["batch_done"] = 0.0
    return {
        "horizon": 2,
        "components": [
            {"name": "phase", "external": False},
            {"name": "funds_out", "external": True},
            {"name": "fraud", "external": True},
        ],
        "states": states,
        "initial_state": "start",
        "null_action": "noop",
        "nodes": nodes,
        "terminal_losses": losses,
    }


def _payment_continuation(model: EnvironmentModel) -> Policy:
    choices = {}
    for t, s in model.all_nodes():
        choices[(t, s)] = "release" if s in ("wired_fraud", "wired_clear") else "noop"
    return Policy.deterministic(choices)


def _payment_sdm(model: EnvironmentModel) -> SafeDefaultMap:
    entries = {
        (0, "start", "wire_transfer"): "draft_payment",
        (1, "wired_fraud", "release"): "noop",
        (1, "wired_fraud", "recall"): "noop",
        (1, "wired_clear", "release"): "noop",
        (1, "wired_clear", "recall"): "noop",
    }
    if "legacy_batch" in model.actions(0, "start"):
        entries[(0, "start", "legacy_batch")] = "draft_payment"
    return SafeDefaultMap.from_entries(entries, model)


PAYMENT_FRAUD_EVENT = frozenset(
    {"funds_lost", "recall_shortfall", "review_flagged", "fraud_averted"}
)


def payment_release_witness(
    recall_recovers: bool = False,
    include_legacy: bool = False,
) -> WitnessCase:
    """Wire-transfer-versus-draft instance on a two-model ambiguity set.

    The stressed model raises the fraud rate and serves as the witness model.
    With ``recall_recovers`` the recall action claws the whole loss back, so
    hedging resistance fails while the tail gap still holds. With
    ``include_legacy`` the base authority set already contains a batcher
    whose worst-case risk dwarfs the wire, so granting the wire leaves the
    set-level capital unchanged.
    """
    loss_recall = 1.0 if recall_recovers else 9.6
    base = build_model(_payment_model_spec(0.2, 10.0, loss_recall, 1.0, include_legacy=include_legacy))
    stress = build_model(_payment_model_spec(0.35, 10.0, loss_recall, 1.0, include_legacy=include_legacy))
    amb = AmbiguitySet(models=(base, stress))
    cont = _payment_continuation(base)
    base_actions = ("draft_payment", "noop") + (("legacy_batch",) if include_legacy else ())
    return WitnessCase(
        ambiguity=amb,
        time=0,
        state="start",
        action="wire_transfer",
        base_actions=base_actions,
        cont=cont,
        sdm=_payment_sdm(base),
        witness=WitnessSpec(
            model_index=1,
            event=PAYMENT_FRAUD_EVENT,
            min_gap=9.0,
            hedge_allowance=0.5,
        ),
    )


def shipment_tail_witness() -> WitnessCase:
    """Single-step instance whose loss gap hides below the shortfall tail.

    A carrier mishap dominates the tail regardless of the action, so an
    expected-shortfall mapping at level 0.8 never sees the address-typo gap
    the rush creates: condition three fails for the shortfall and holds for
    any entropic mapping.
    """
    spec = {
        "horizon": 1,
        "components": [
            {"name": "shipped", "external": True},
            {"name": "mishap", "external": True},
        ],
        "states": [
            {"id": "start", "components": {"shipped": 0, "mishap": "none"}},
            {"id": "carrier_smash", "components": {"shipped": 1, "mishap": "carrier"}},
            {"id": "typo_rush", "components": {"shipped": 1, "mishap": "typo"}},
            {"id": "typo_hold", "components": {"shipped": 0, "mishap": "typo"}},
            {"id": "ok_rush", "components": {"shipped": 1, "mishap": "none"}},
            {"id": "ok_hold", "components": {"shipped": 0, "mishap": "none"}},
        ],
        "initial_state": "start",
        "null_action": "noop",
        "nodes": [
            {"time": 0, "state": "start", "actions": {
                "rush_ship": {"kernel": {"carrier_smash": 0.3, "typo_rush": 0.2, "ok_rush": 0.5}},
                "hold_order": {"kernel": {"carrier_smash": 0.3, "typo_hold": 0.2, "ok_hold": 0.5}},
                "noop": {"kernel": {"carrier_smash": 0.3, "typo_hold": 0.2, "ok_hold": 0.5}},
            }},
        ],
        "terminal_losses": {
            "carrier_smash": 6.0, "typo_rush": 3.0, "typo_hold": 1.0,
            "ok_rush": 0.0, "ok_hold": 0.0,
        },
    }
    model = build_model(spec)
    amb = AmbiguitySet(models=(model,))
    cont = Policy.deterministic({(0, "start"): "noop"})
    sdm = SafeDefaultMap.from_entries({(0, "start", "rush_ship"): "hold_order"}, model)
    return WitnessCase(
        ambiguity=amb,
        time=0,
        state="start",
        action="rush_ship",
        base_actions=("hold_order", "noop"),
        cont=cont,
        sdm=sdm,
        witness=WitnessSpec(
            model_index=0,
            event=frozenset({"typo_rush", "typo_hold"}),
            min_gap=2.0,
            hedge_allowance=0.0,
        ),
    )


def random_payment_witness(rng: np.random.Generator) -> WitnessCase:
    """Randomised payment-shaped instance for structural fuzzing.

    Parameters are drawn so the family mixes certificates that hold with
    ones broken in each condition: recall effectiveness controls hedging
    resistance, a mispriced clean path breaks the everywhere-gap, and the
    declared gap is sometimes overstated.
    """
    n_models = int(rng.integers(1, 4))
    fraud = sorted(float(f) for f in rng.uniform(0.05, 0.45, size=n_models))
    loss_lost = float(rng.uniform(4.0, 12.0))
    loss_review = float(rng.uniform(0.3, 2.0))
    recall_cut = float(rng.uniform(0.0, loss_lost - loss_review))
    loss_recall = loss_lost - recall_cut
    # occasionally price the clean wire outcome above the clean draft
    # outcome, violating the everywhere-nonnegative gap
    clean_gap_break = bool(rng.random() < 0.25)
    loss_recalled_clean = float(rng.uniform(0.0, 1.0))

    models = []
    for f in fraud:
        spec = _payment_model_spec(
            f, loss_lost, loss_recall, loss_review, loss_recalled_clean=loss_recalled_clean
        )
        if clean_gap_break:
            spec["terminal_losses"]["invoice_pending"] = float(rng.uniform(0.5, 2.0))
        models.append(build_model(spec))
    amb = AmbiguitySet(models=tuple(models))
    cont = _payment_continuation(models[0])

    true_gap = loss_lost - loss_review
    overstated = bool(rng.random() < 0.2)
    min_gap = true_gap + (float(rng.uniform(0.1, 1.0)) if overstated else 0.0)
    max_reduction = min_gap - (loss_recall - loss_review)
    if rng.random() < 0.5:
        allowance = max_reduction + float(rng.uniform(0.0, 0.5))
    else:
        allowance = max(0.0, max_reduction - float(rng.uniform(0.05, 0.5)))
    allowance = min(allowance, min_gap * 0.99)
    return WitnessCase(
        ambiguity=amb,
        time=0,
        state="start",
        action="wire_transfer",
        base_actions=("draft_payment", "noop"),
        cont=cont,
        sdm=_payment_sdm(models[0]),
        witness=WitnessSpec(
            model_index=int(rng.integers(0, n_models)),
            event=PAYMENT_FRAUD_EVENT,
            min_gap=min_gap,
            hedge_allowance=max(0.0, allowance),
        ),
    )
