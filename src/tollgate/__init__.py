"""Per-action actuarial runtime on finite sandbox environments.

Every side-effect-bearing action a gated agent proposes is priced by a
counterfactual risk toll against its contractually fixed safe default,
charged inside an underwriting boundary, bounded by a conservative envelope,
and executed only while a toll budget lasts. Brute-force oracles back every
structural claim on desk-scale models.
"""

from .boundary import (
    BoundaryLedger,
    BoundarySpec,
    PotentialSpec,
    boundary_toll,
    path_dependence_counterexample,
    splitting_invariance_check,
)
from .envelope import Envelope, coverage_estimate, exact_envelope, fit_conformal_envelope
from .envmodel import (
    EnvironmentModel,
    Intervention,
    Policy,
    SafeDefaultMap,
    build_model,
    is_side_effect_bearing,
)
from .gate import (
    AuditReport,
    EpisodeLog,
    GateConfig,
    Verdict,
    audit_budget_guarantee,
    gate_step,
    run_episode,
)
from .oracle import (
    EnumerationBudget,
    enumerate_policies,
    enumerate_terminal_law,
    static_risk,
)
from .risk import (
    RiskSpec,
    RiskValuation,
    check_axioms,
    cvar_inconsistency_demo,
    evaluate_dynamic_risk,
    evaluate_policy_risk,
    one_step_risk,
)
from .scenario import Scenario, bundled_scenario_path, config_hash, load_scenario
from .tolls import (
    AmbiguitySet,
    TollQuote,
    WitnessSpec,
    authority_premium,
    counterfactual_toll,
    iap_check,
    robust_capital,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguitySet",
    "AuditReport",
    "BoundaryLedger",
    "BoundarySpec",
    "Envelope",
    "EnumerationBudget",
    "EnvironmentModel",
    "EpisodeLog",
    "GateConfig",
    "Intervention",
    "Policy",
    "PotentialSpec",
    "RiskSpec",
    "RiskValuation",
    "SafeDefaultMap",
    "Scenario",
    "TollQuote",
    "Verdict",
    "WitnessSpec",
    "audit_budget_guarantee",
    "authority_premium",
    "boundary_toll",
    "build_model",
    "bundled_scenario_path",
    "check_axioms",
    "config_hash",
    "counterfactual_toll",
    "coverage_estimate",
    "cvar_inconsistency_demo",
    "enumerate_policies",
    "enumerate_terminal_law",
    "evaluate_dynamic_risk",
    "evaluate_policy_risk",
    "exact_envelope",
    "fit_conformal_envelope",
    "gate_step",
    "iap_check",
    "is_side_effect_bearing",
    "load_scenario",
    "one_step_risk",
    "path_dependence_counterexample",
    "robust_capital",
    "run_episode",
    "splitting_invariance_check",
    "static_risk",
    "verify_witness",
]
