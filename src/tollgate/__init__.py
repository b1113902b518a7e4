"""Per-action actuarial runtime on finite sandbox environments.

Every side-effect-bearing action a gated agent proposes is priced by a
counterfactual risk toll against its contractually fixed safe default,
charged inside an underwriting boundary, bounded by a conservative envelope,
and executed only while a toll budget lasts. Brute-force oracles back every
structural claim on desk-scale models.
"""

__version__ = "0.1.0"
