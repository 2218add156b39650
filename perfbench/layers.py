"""Per-layer metrics of a traced pass, computed from a `tracing.Tracer`.

`METRICS` lists each metric as (name, unit, better, kind).  `kind` is
"exact" for numbers that repeat exactly for a given pass seed, and
"measured" for times, the tracing overhead and the report size (the report
holds its own wall time), which the runner reports as a median over its
traced passes.
"""

from __future__ import annotations

METRICS = [
    ("families.logsum.calls", "count", "lower", "exact"),
    ("families.logsum.self_s", "s", "lower", "measured"),
    ("families.logsum.distinct_frac", "ratio", "higher", "exact"),
    ("families.make_family.calls", "count", "lower", "exact"),
    ("families.make_family.s", "s", "lower", "measured"),
    ("dqm.step_chain.s.l1", "s", "lower", "measured"),
    ("dqm.step_chain.s.l2", "s", "lower", "measured"),
    ("dqm.step_chain.s.l3", "s", "lower", "measured"),
    ("dqm.step_chain.logsum_calls.l1", "count", "lower", "exact"),
    ("dqm.step_chain.logsum_calls.l2", "count", "lower", "exact"),
    ("dqm.step_chain.logsum_calls.l3", "count", "lower", "exact"),
    ("dqm.branch.calls", "count", "lower", "exact"),
    ("dqm.branch.miss_calls", "count", "lower", "exact"),
    ("dqm.branch.hit_frac", "ratio", "higher", "exact"),
    ("dqm.branch.radicand_calls", "count", "lower", "exact"),
    ("dqm.branch.self_s", "s", "lower", "measured"),
    ("dqm.branch.memo_entries", "count", "lower", "exact"),
    ("dqm.relation_residual.s", "s", "lower", "measured"),
    ("dqm.phi_via_casoratian.s", "s", "lower", "measured"),
    ("oqm.build_chain.s", "s", "lower", "measured"),
    ("oqm.relation_residual.s", "s", "lower", "measured"),
    ("oqm.node_count.s", "s", "lower", "measured"),
    ("jets.ops", "count", "lower", "exact"),
    ("jets.array_frac", "ratio", "higher", "exact"),
    ("analytic.jet.calls", "count", "lower", "exact"),
    ("verify.grid_eigensolve.calls", "count", "lower", "exact"),
    ("verify.grid_eigensolve.s", "s", "lower", "measured"),
    ("verify.grid_eigensolve.u_evals", "count", "lower", "exact"),
    ("quadrature.integrate.calls", "count", "lower", "exact"),
    ("quadrature.integrate.self_s", "s", "lower", "measured"),
    ("quadrature.integrate.nodes", "count", "lower", "exact"),
    ("quadrature.integrate.err_max", "abs", "lower", "exact"),
    ("quadrature.integrate.failures", "count", "lower", "exact"),
    ("quadrature.refinement_sequence.s", "s", "lower", "measured"),
    ("verify.gram_matrix.s", "s", "lower", "measured"),
    ("verify.gram_matrix.entries", "count", "lower", "exact"),
    ("analytic.inner_product.calls", "count", "lower", "exact"),
    ("analytic.inner_product.s", "s", "lower", "measured"),
    ("analytic.lu_det.calls", "count", "lower", "exact"),
    ("analytic.lu_det.self_s", "s", "lower", "measured"),
    ("analytic.lu_det.growth_max", "ratio", "lower", "exact"),
    ("analytic.casoratian.calls", "count", "lower", "exact"),
    ("analytic.wronskian.calls", "count", "lower", "exact"),
    ("structure.shape_invariance_residual.s", "s", "lower", "measured"),
    ("structure.eta_relations_residual.s", "s", "lower", "measured"),
    ("cli.main.self_s", "s", "lower", "measured"),
    ("cli.report_bytes", "B", "lower", "measured"),
    ("trace.overhead_frac", "ratio", "lower", "measured"),
]

# layer boundaries (span names or counters) that a workload must exercise,
# and those it must bypass; the coverage self-test holds the trace to these
PREDICTED = {
    "suite-aw": {
        "fires": ["families.logsum.calls", "families.make_family.calls",
                  "dqm.step_chain.logsum_calls.l1", "dqm.branch.calls",
                  "dqm.relation_residual.s", "dqm.phi_via_casoratian.s",
                  "quadrature.integrate.calls", "quadrature.refinement_sequence.s",
                  "verify.gram_matrix.entries", "analytic.inner_product.calls",
                  "analytic.lu_det.calls", "analytic.casoratian.calls",
                  "structure.shape_invariance_residual.s",
                  "structure.eta_relations_residual.s"],
        "zero": ["jets.ops", "verify.grid_eigensolve.calls", "oqm.build_chain.s",
                 "oqm.relation_residual.s", "oqm.node_count.s", "cli.main.self_s",
                 "dqm.step_chain.logsum_calls.l3"],
    },
    "suite-oqm": {
        "fires": ["families.make_family.calls", "oqm.build_chain.s",
                  "oqm.relation_residual.s", "oqm.node_count.s", "jets.ops",
                  "analytic.jet.calls", "verify.grid_eigensolve.calls",
                  "verify.grid_eigensolve.u_evals", "quadrature.integrate.calls",
                  "quadrature.refinement_sequence.s", "verify.gram_matrix.entries",
                  "analytic.inner_product.calls", "analytic.lu_det.calls",
                  "analytic.wronskian.calls", "structure.shape_invariance_residual.s",
                  "structure.eta_relations_residual.s", "cli.main.self_s",
                  "cli.report_bytes"],
        "zero": ["families.logsum.calls", "dqm.branch.calls", "dqm.branch.radicand_calls",
                 "dqm.step_chain.s.l1", "dqm.relation_residual.s",
                 "dqm.phi_via_casoratian.s", "analytic.casoratian.calls"],
    },
    "chain-eval": {
        "fires": ["families.logsum.calls", "families.make_family.calls",
                  "dqm.step_chain.logsum_calls.l1", "dqm.step_chain.logsum_calls.l2",
                  "dqm.branch.calls",
                  "dqm.branch.miss_calls", "dqm.branch.radicand_calls",
                  "dqm.branch.memo_entries"],
        "zero": ["verify.grid_eigensolve.calls", "quadrature.integrate.calls",
                 "jets.ops", "analytic.jet.calls", "oqm.build_chain.s",
                 "verify.gram_matrix.entries", "analytic.inner_product.calls",
                 "analytic.lu_det.calls", "analytic.casoratian.calls",
                 "analytic.wronskian.calls", "dqm.relation_residual.s",
                 "dqm.phi_via_casoratian.s", "structure.shape_invariance_residual.s",
                 "cli.main.self_s"],
    },
}


def layer_metrics(tracer):
    """Every metric of METRICS except trace.overhead_frac, which needs an
    untraced pass."""
    totals = tracer.span_totals()
    counts = tracer.counts

    def calls(span):
        return totals.get(span, [0, 0.0, 0.0])[0]

    def incl(span):
        return totals.get(span, [0, 0.0, 0.0])[1]

    def self_s(span):
        return totals.get(span, [0, 0.0, 0.0])[2]

    def frac(num, den):
        return num / den if den else 0.0

    logsum_calls = counts["families.logsum.calls"]
    branch_calls = calls("dqm.branch")
    out = {
        "families.logsum.calls": logsum_calls,
        "families.logsum.self_s": self_s("families.logsum"),
        "families.logsum.distinct_frac": frac(len(tracer.logsum_points), logsum_calls),
        "families.make_family.calls": calls("families.make_family"),
        "families.make_family.s": incl("families.make_family"),
        "dqm.branch.calls": branch_calls,
        "dqm.branch.miss_calls": counts["dqm.branch.miss_calls"],
        "dqm.branch.hit_frac": frac(branch_calls - counts["dqm.branch.miss_calls"],
                                    branch_calls),
        "dqm.branch.radicand_calls": counts["dqm.branch.radicand_calls"],
        "dqm.branch.self_s": self_s("dqm.branch"),
        "dqm.branch.memo_entries": (tracer.memo_entries if tracer.memo_entries is not None
                                    else tracer.branch_entries()),
        "dqm.relation_residual.s": incl("dqm.relation_residual"),
        "dqm.phi_via_casoratian.s": incl("dqm.phi_via_casoratian"),
        "oqm.build_chain.s": incl("oqm.build_chain"),
        "oqm.relation_residual.s": incl("oqm.relation_residual"),
        "oqm.node_count.s": incl("oqm.node_count"),
        "jets.ops": counts["jets.ops"],
        "jets.array_frac": frac(counts["jets.array_ops"], counts["jets.ops"]),
        "analytic.jet.calls": counts["analytic.jet.calls"],
        "verify.grid_eigensolve.calls": calls("verify.grid_eigensolve"),
        "verify.grid_eigensolve.s": incl("verify.grid_eigensolve"),
        "verify.grid_eigensolve.u_evals": counts["verify.grid_eigensolve.u_evals"],
        "quadrature.integrate.calls": counts["quadrature.integrate.calls"],
        "quadrature.integrate.self_s": self_s("quadrature.integrate"),
        "quadrature.integrate.nodes": counts["quadrature.integrate.nodes"],
        "quadrature.integrate.err_max": tracer.maxima.get("quadrature.integrate.err_max", 0.0),
        "quadrature.integrate.failures": counts["quadrature.integrate.failures"],
        "quadrature.refinement_sequence.s": incl("quadrature.refinement_sequence"),
        "verify.gram_matrix.s": incl("verify.gram_matrix"),
        "verify.gram_matrix.entries": counts["verify.gram_matrix.entries"],
        "analytic.inner_product.calls": calls("analytic.inner_product"),
        "analytic.inner_product.s": incl("analytic.inner_product"),
        "analytic.lu_det.calls": calls("analytic.lu_det"),
        "analytic.lu_det.self_s": self_s("analytic.lu_det"),
        "analytic.lu_det.growth_max": tracer.maxima.get("analytic.lu_det.growth_max", 0.0),
        "analytic.casoratian.calls": calls("analytic.casoratian"),
        "analytic.wronskian.calls": calls("analytic.wronskian"),
        "structure.shape_invariance_residual.s": incl("structure.shape_invariance_residual"),
        "structure.eta_relations_residual.s": incl("structure.eta_relations_residual"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.report_bytes": counts["cli.report_bytes"],
    }
    for tag in ("l1", "l2", "l3"):
        out[f"dqm.step_chain.s.{tag}"] = incl(f"dqm.step_chain.{tag}")
        out[f"dqm.step_chain.logsum_calls.{tag}"] = counts[f"dqm.step_chain.logsum_calls.{tag}"]
    return out
