"""In-memory span tracer wrapped around tollgate's public functions.

:func:`install` replaces every module binding of each traced function (and
the two traced methods) with a wrapper that records a span: name, start,
end and the index of the enclosing span. Nothing under ``src/`` changes;
the wrappers live only in the traced process. :func:`self_times` and
:func:`layer_metrics` turn the spans of one or more processes into per-layer
numbers.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, function) -> span name. Every module of the package that binds
# the same function object gets the wrapper too.
FUNCTIONS = {
    ("scenario", "load_scenario"): "scenario.load",
    ("scenario", "resolve_scenario"): "scenario.load",
    ("scenario", "calibrate_conformal"): "scenario.calibrate",
    ("envmodel", "build_model"): "envmodel.build_model",
    ("risk", "evaluate_dynamic_risk"): "risk.evaluate",
    ("risk", "evaluate_policy_risk"): "risk.evaluate",
    ("tolls", "counterfactual_toll"): "tolls.counterfactual_toll",
    ("tolls", "authority_premium"): "tolls.robust",
    ("tolls", "robust_capital"): "tolls.robust",
    ("tolls", "iap_check"): "tolls.robust",
    ("tolls", "verify_witness"): "tolls.robust",
    ("gate", "gate_step"): "gate.step",
    ("gate", "run_episode"): "gate.run_episode",
    ("gate", "audit_budget_guarantee"): "gate.audit",
    ("boundary", "splitting_invariance_check"): "boundary.split_check",
    ("runio", "episode_json_lines"): "runio.write",
    ("runio", "write_episode_logs"): "runio.write",
    ("runio", "write_summary_csv"): "runio.write",
    ("runio", "write_boundary_log"): "runio.write",
    ("runio", "write_manifest"): "runio.write",
    ("runio", "read_manifest"): "runio.read",
    ("runio", "read_episode_records"): "runio.read",
    ("runio", "read_summary"): "runio.read",
    ("oracle", "enumerate_terminal_law"): "oracle.enumerate",
    ("oracle", "enumerate_policies"): "oracle.enumerate",
    ("oracle", "static_risk"): "oracle.enumerate",
    ("verify", "time_consistency_suite"): "verify.time-consistency",
    ("verify", "cvar_demo_suite"): "verify.cvar-demo",
    ("verify", "no_splitting_suite"): "verify.no-splitting",
    ("verify", "iap_suite"): "verify.iap",
    ("verify", "gating_suite"): "verify.gating",
    ("cli", "cmd_run"): "cli.run",
    ("cli", "cmd_report"): "cli.report",
    ("cli", "cmd_verify"): "cli.verify",
}

SUITES = ("time-consistency", "cvar-demo", "no-splitting", "iap", "gating")
VERDICTS = ("EXECUTE", "DOWNGRADE", "ESCALATE_APPROVED", "ESCALATE_DENIED", "BLOCK")

# Run-directory file read by each traced reader, for runio.bytes_read.
_READ_FILES = {
    "read_manifest": "manifest.json",
    "read_episode_records": "episodes.jsonl",
    "read_summary": "summary.csv",
}


class Tracer:
    """Spans and counters of one process.

    ``spans`` holds ``(name, start, end, parent)`` tuples, parent being the
    index of the enclosing span or -1. ``calls`` counts wrapper entries by
    span name; ``counters`` holds the counts read off arguments and results.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.priced: set = set()
        self._stack: list[int] = []

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        counters = dict(self.counters)
        counters["priced_keys"] = len(self.priced)
        return {
            "names": names,
            "spans": [[code[n], s, e, p] for n, s, e, p in self.spans],
            "calls": dict(self.calls),
            "counters": counters,
        }


def _on_result(tracer: Tracer, fn_name: str, args: tuple, result) -> None:
    if fn_name in ("evaluate_dynamic_risk", "evaluate_policy_risk"):
        tracer.counters["nodes_valued"] += len(result.values)
    elif fn_name == "gate_step":
        tracer.counters["verdict." + result[0].verdict.value] += 1
    elif fn_name == "counterfactual_toll":
        tracer.priced.add(args[:4])
    elif fn_name.startswith("write_"):
        tracer.counters["bytes_written"] += Path(result).stat().st_size
    elif fn_name in _READ_FILES:
        tracer.counters["bytes_read"] += (Path(args[0]) / _READ_FILES[fn_name]).stat().st_size


def _wrap_function(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        result = tracer.call(name, fn, args, kwargs)
        _on_result(tracer, fn.__name__, args, result)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, fn, name: str):
    # The work of a generator happens at each resume, in the consumer's
    # frame, so every resume is a span of its own.
    def resumes(gen):
        while True:
            try:
                item = tracer.call(name, next, (gen,), {})
            except StopIteration:
                return
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        return resumes(fn(*args, **kwargs))

    return wrapper


def _wrap_query(tracer: Tracer, query):
    @functools.wraps(query)
    def wrapper(self, *args):
        name = "envelope.query." + self.kind
        tracer.calls[name] += 1
        return tracer.call(name, query, (self,) + args, {})

    return wrapper


def _wrap_commit(tracer: Tracer, commit):
    @functools.wraps(commit)
    def wrapper(*args, **kwargs):
        tracer.calls["boundary.commit"] += 1
        return tracer.call("boundary.commit", commit, args, kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every binding of each traced function in the tollgate modules,
    and the traced methods on their classes."""
    import tollgate.cli  # noqa: F401  (loads every module that binds a target)
    from tollgate.boundary import BoundaryLedger
    from tollgate.envelope import Envelope

    modules = [m for k, m in sys.modules.items() if k == "tollgate" or k.startswith("tollgate.")]
    for (mod_name, fn_name), span_name in FUNCTIONS.items():
        original = getattr(sys.modules["tollgate." + mod_name], fn_name)
        wrap = _wrap_generator if inspect.isgeneratorfunction(original) else _wrap_function
        wrapper = wrap(tracer, original, span_name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    Envelope.query = _wrap_query(tracer, Envelope.query)
    BoundaryLedger.commit = _wrap_commit(tracer, BoundaryLedger.commit)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], start), min(spans[j][2], end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, index: int, prefix: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def layer_metrics(dumps) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the dumps of its processes.

    Layer times are sums of self time; ``verify.<suite>_s`` is the suite's
    whole duration. Counts add up over processes.
    """
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counters: Counter = Counter()
    step_us: list[float] = []
    suites: Counter = Counter()
    tolls_under_query = 0
    for dump in dumps:
        spans = [(dump["names"][c], s, e, p) for c, s, e, p in dump["spans"]]
        for span, own in zip(spans, self_times(spans)):
            self_s[span[0]] += own
        for i, (name, start, end, _) in enumerate(spans):
            if name == "gate.step":
                step_us.append((end - start) * 1e6)
            elif name.startswith("verify."):
                suites[name] += end - start
            elif name == "tolls.counterfactual_toll" and _has_ancestor(spans, i, "envelope.query"):
                tolls_under_query += 1
        calls.update(dump["calls"])
        counters.update(dump["counters"])

    exact_queries = calls["envelope.query.exact"]
    m = {
        "scenario.load_s": self_s["scenario.load"],
        "scenario.calibrate_s": self_s["scenario.calibrate"],
        "envmodel.build_model_s": self_s["envmodel.build_model"],
        "envmodel.build_model_calls": calls["envmodel.build_model"],
        "risk.evaluate_s": self_s["risk.evaluate"],
        "risk.evaluate_calls": calls["risk.evaluate"],
        "risk.nodes_valued": counters["nodes_valued"],
        "tolls.counterfactual_toll_s": self_s["tolls.counterfactual_toll"],
        "tolls.counterfactual_toll_calls": calls["tolls.counterfactual_toll"],
        "tolls.robust_s": self_s["tolls.robust"],
        "tolls.robust_calls": calls["tolls.robust"],
        "envelope.query_calls.exact": exact_queries,
        "envelope.query_calls.conformal": calls["envelope.query.conformal"],
        "envelope.query_s": self_s["envelope.query.exact"] + self_s["envelope.query.conformal"],
        "envelope.exact_hit_ratio": (
            1.0 - tolls_under_query / exact_queries if exact_queries else 0.0
        ),
        "gate.step_calls": calls["gate.step"],
        "gate.step_self_s": self_s["gate.step"],
        "gate.decision_us.p50": percentile(step_us, 50),
        "gate.decision_us.p99": percentile(step_us, 99),
        "gate.sampling_self_s": self_s["gate.run_episode"],
        "gate.audit_s": self_s["gate.audit"],
        "boundary.commit_calls": calls["boundary.commit"],
        "boundary.commit_s": self_s["boundary.commit"],
        "boundary.split_check_s": self_s["boundary.split_check"],
        "runio.write_s": self_s["runio.write"],
        "runio.bytes_written": counters["bytes_written"],
        "runio.read_s": self_s["runio.read"],
        "runio.bytes_read": counters["bytes_read"],
        "oracle.enumerate_s": self_s["oracle.enumerate"],
        "oracle.enumerate_calls": calls["oracle.enumerate"],
        "cli.report_self_s": self_s["cli.report"],
        "base.episodes": calls["gate.run_episode"],
        "base.decisions": calls["gate.step"],
        "base.priced_keys": counters["priced_keys"],
        "base.tolls_under_query": tolls_under_query,
    }
    for verdict in VERDICTS:
        m["gate.verdict." + verdict] = counters["verdict." + verdict]
    for suite in SUITES:
        m[f"verify.{suite}_s"] = suites["verify." + suite]
    return m
