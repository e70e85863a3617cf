"""
Five-task benchmark: accuracy, mismatch, and weight sweeps
==========================================================

The stock benchmark trains an anchor on one Gaussian-blob task, fine-tunes
it on four more tasks whose class directions fan out across the plane,
then merges the fine-tunes with every catalog method.  Three observations
come out of it:

1. at full weight the curvature-aware merge matches or beats plain
   increment addition on held-out accuracy;
2. its gradient-mismatch norm against the jointly trained target is much
   smaller, and mismatch tracks parameter error across methods;
3. across the 0..1 weight sweep it stays near its peak while increment
   addition falls off past its optimum.
"""

from gradmerge import default_spec, mismatch_report, run_addition, run_pipeline, sweep_alpha
from gradmerge.harness import fixture_from_state

spec = default_spec()
seed = 0
print(f"benchmark: {spec.n_tasks} logistic tasks, seed {seed}")

# Train once (anchor + fine-tunes), reuse the state for everything below.
state = run_pipeline(spec, seed)

# --- 1. held-out accuracy per method at full weight -----------------------
result = run_addition(spec, out_dir="demo_out", seed=seed, state=state)
print("\nheld-out accuracy at weight 1.0 (avg over added tasks):")
for label in list(spec.methods) + ["all-data", "anchor"]:
    outcome = result.outcomes[label]
    print(f"  {label:>8}: {outcome.avg:.3f}")

# --- 2. gradient mismatch vs the joint target -----------------------------
# Score the merges and the joint target that run_addition already made.
fixture = fixture_from_state(state, result.target.params, 1.0)
print("\ntotal gradient-mismatch norm vs the joint target:")
for method in ("ta", "ours"):
    report = mismatch_report(fixture, result.outcomes[method].params)
    print(
        f"  {method:>8}: mismatch {report.total_weighted_norm:8.2f}"
        f"   parameter error {report.error_norm:.3f}"
    )

# --- 3. robustness across the merge-weight grid ---------------------------
sweep = sweep_alpha(spec, out_dir="demo_out", seed=seed, state=state)
print("\naccuracy across the weight grid (peak vs value at 1.0):")
for method in ("ta", "ours"):
    series = dict(sweep.series[method])
    peak = max(series.values())
    print(
        f"  {method:>8}: peak {peak:.3f}, at weight 1.0 {series[1.0]:.3f}"
        f"  (drop {peak - series[1.0]:+.3f})"
    )
print("\nfull tables in demo_out/ (summary.csv, sweep_<method>.dat)")
