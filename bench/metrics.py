"""Every metric the benchmark prints: unit, direction, whether it goes into
the result line, and which end-to-end metric it should move on which
workload.

``END_TO_END`` and the ``in_result`` rows of ``PER_LAYER`` are exactly the
metrics listed in BENCHMARK.json; the result line holds only metrics that
every workload measures and that are never 0. The other rows are printed
and saved with each run, because they exist on one workload only (for
example the ``verify`` suites) or are 0 on some workload.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    in_result: bool
    note: str  # end-to-end: definition; per-layer: what it should move


END_TO_END = (
    Metric("setup_s", "s", "lower", True,
           "median wall time of a CLI process that sets up and does no work: "
           "`run --episodes 0` on bundled and ladder, `verify --help` on verify"),
    Metric("commands_s", "s", "lower", True,
           "median wall time of one pass over the workload's commands: "
           "run_s + report_s on bundled and ladder, verify_s on verify"),
    Metric("peak_rss_mb", "MB", "lower", True,
           "largest peak RSS of the workload's CLI processes (os.wait4 rusage)"),
    Metric("run_s", "s", "lower", False,
           "median over passes of `tollgate run` wall time, summed over the scenarios"),
    Metric("report_s", "s", "lower", False,
           "median over passes of `tollgate report` wall time, summed over the run directories"),
    Metric("verify_s", "s", "lower", False,
           "median over passes of `tollgate verify --suite all` wall time"),
    Metric("failed_share", "ratio", "lower", False,
           "failed commands / attempted commands (base: attempted)"),
)

PER_LAYER = (
    Metric("import.tollgate_s", "s", "lower", True,
           "setup_s on every workload"),
    Metric("scenario.load_s", "s", "lower", True, "setup_s on ladder"),
    Metric("scenario.calibrate_s", "s", "lower", False, "verify_s on verify"),
    Metric("envmodel.build_model_s", "s", "lower", True,
           "setup_s on ladder; verify_s on verify"),
    Metric("envmodel.build_model_calls", "count", "lower", True,
           "setup_s on ladder; verify_s on verify"),
    Metric("risk.evaluate_s", "s", "lower", True,
           "run_s and report_s on ladder; verify_s on verify; no change on bundled"),
    Metric("risk.evaluate_calls", "count", "lower", True,
           "run_s and report_s on ladder; verify_s on verify; no change on bundled"),
    Metric("risk.nodes_valued", "count", "lower", True,
           "run_s and report_s on ladder; verify_s on verify; no change on bundled"),
    Metric("tolls.counterfactual_toll_s", "s", "lower", True,
           "run_s and report_s on ladder"),
    Metric("tolls.counterfactual_toll_calls", "count", "lower", True,
           "run_s and report_s on ladder"),
    Metric("tolls.robust_s", "s", "lower", False, "verify_s on verify"),
    Metric("tolls.robust_calls", "count", "lower", True, "verify_s on verify"),
    Metric("envelope.query_calls.exact", "count", "lower", True,
           "base of envelope.exact_hit_ratio"),
    Metric("envelope.query_calls.conformal", "count", "lower", True,
           "verify_s on verify (fast tier)"),
    Metric("envelope.query_s", "s", "lower", True, "run_s on bundled and ladder"),
    Metric("envelope.exact_hit_ratio", "ratio", "higher", True, "run_s on ladder"),
    Metric("gate.step_calls", "count", "lower", True, "run_s on bundled and ladder"),
    Metric("gate.step_self_s", "s", "lower", True, "run_s on bundled and ladder"),
    Metric("gate.decision_us.p50", "us", "lower", True, "run_s on bundled and ladder"),
    Metric("gate.decision_us.p99", "us", "lower", True, "run_s on bundled and ladder"),
    Metric("gate.sampling_self_s", "s", "lower", True, "run_s on bundled"),
    Metric("gate.audit_s", "s", "lower", False, "verify_s on verify"),
    Metric("gate.verdict.EXECUTE", "count", "higher", True, "sanity count"),
    Metric("gate.verdict.DOWNGRADE", "count", "lower", True, "sanity count"),
    Metric("gate.verdict.ESCALATE_APPROVED", "count", "lower", True, "sanity count"),
    Metric("gate.verdict.ESCALATE_DENIED", "count", "lower", True, "sanity count"),
    Metric("gate.verdict.BLOCK", "count", "lower", True, "sanity count"),
    Metric("boundary.commit_calls", "count", "lower", True, "run_s on bundled"),
    Metric("boundary.commit_s", "s", "lower", True, "run_s on bundled"),
    Metric("boundary.split_check_s", "s", "lower", False, "verify_s on verify"),
    Metric("runio.write_s", "s", "lower", True, "run_s on bundled"),
    Metric("runio.bytes_written", "count", "lower", True, "run_s on bundled"),
    Metric("runio.read_s", "s", "lower", False, "report_s on bundled"),
    Metric("runio.bytes_read", "count", "lower", True, "report_s on bundled"),
    Metric("oracle.enumerate_s", "s", "lower", False, "verify_s on verify"),
    Metric("oracle.enumerate_calls", "count", "lower", True, "verify_s on verify"),
    Metric("verify.time-consistency_s", "s", "lower", False, "verify_s on verify"),
    Metric("verify.cvar-demo_s", "s", "lower", False, "verify_s on verify"),
    Metric("verify.no-splitting_s", "s", "lower", False, "verify_s on verify"),
    Metric("verify.iap_s", "s", "lower", False, "verify_s on verify"),
    Metric("verify.gating_s", "s", "lower", False, "verify_s on verify"),
    Metric("cli.report_self_s", "s", "lower", False, "report_s on bundled"),
    Metric("trace.overhead_s", "s", "lower", True,
           "traced minus untraced commands_s; no end-to-end effect"),
    Metric("base.episodes", "count", "higher", False, "base count"),
    Metric("base.decisions", "count", "higher", False, "base count"),
    Metric("base.priced_keys", "count", "higher", False, "base count"),
    Metric("base.tolls_under_query", "count", "lower", False,
           "base of envelope.exact_hit_ratio"),
)


def result_metrics(trace: bool) -> tuple[Metric, ...]:
    rows = PER_LAYER if trace else END_TO_END
    return tuple(m for m in rows if m.in_result)
