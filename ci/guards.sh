#!/usr/bin/env bash
# Source guards: retired names stay gone, the engine stays split along the
# paper's seams, the engine crates start no thread, the benchmark-pinned
# `SJfslStrategy` has one definition, the inert parallelism knob keeps its
# one setter and the inert DVA knob is read nowhere.
#
# Usage: ci/guards.sh   (any directory inside the repository; exits 1
# after printing every violation)
set -u
cd "$(git rev-parse --show-toplevel)" || exit 2

# Names whose subject was deleted. The scope is the code, its build files and
# the docs that describe the current program; CHANGES.md, ROADMAP.md and
# EXPERIMENTS.md keep their history and benchmark/ is frozen, so they are not
# in it, tests/golden/ holds the v1 plan fixture, and this file names every
# pattern, so those two are left out.
retired=(
  # per-PR bench binaries and artifacts, the figure binaries `paper` replaced
  'bench_pr[0-9]+' 'bench_check' 'BENCH_PR[0-9]'
  '--bin (fig9|fig10|fig11|table2|sweep|ablation)\b'
  # the two offline checkers `report` replaced
  'trace_report' 'obs_report'
  # the thread-count rig, the parallel sites and their merge machinery
  'cli_threads' '--threads' 'par_speedup' 'map_ordered' 'map_indexed'
  'chunk_ranges' 'join2' 'TraceBuffer' 'offset_ticks\(' 'PAR_MIN_ROWS'
  'ShardOut' 'fold_ordered' 'ingest_events_sharded'
  # doors and sinks the one `RunRequest` and post-hoc fold replaced
  'try_run_engine_traced' 'try_run_engine_online_traced' 'RecoveryPolicy'
  'ObserverSink' 'scoped_silence_injected_panics' 'static_threats_'
  # second skyline paths: size dispatch, scalar twins, screened twins
  'insert_block' 'insert_scalar' 'bucket_key' 'sig_partitions_' 'BLOCK_MIN'
  '_store_scalar' 'relate_block_packed' 'block_kernel_ops'
  'scalar_kernel_ops' 'kernel_dispatch' 'skyline_bnl_screened' 'sig_relate'
  # the stored-product plan format and its reverse constructors
  'from_cell_rows' 'set_counter' 'from_threats_in' 'structure_digest'
  'EMPTY_PRESORT_SECTION' 'caqe-plan v1'
  # a stored list of per-cell boxes, which the output-cell corner table replaced
  '\.grid\(\)'
  # the one-row row test, which the batch row test (`dominated_rows`) replaced
  'dominated_in\('
  # a swap-remove point store no window ever used
  'SwapStore'
  # the per-query skyline step over a stored join, which each baseline's
  # one pass per join group (`GroupSkyline`) replaced
  'SkylineStep' 'blocking_bnl' 'presorted_sfs' 'unscreened_bnl' 'JOINS_RUN'
  # the second event fold, its fold-vs-fold reconcile and the untyped
  # snapshot reader, which `caqe_obs::Fold` and `MetricsRegistry::from_json`
  # replaced
  'registry_update' 'audit::fold' 'EVENT_COUNTERS' 'Snapshot::load'
  # the per-system strategy types, which the one `EngineStrategy` replaced,
  # and the second infallible traced entry point
  'CaqeStrategy' 'ProgXeStrategy' 'struct Variant' '\brun_traced'
  # a second way to build a workload, and the `Vec<Vec<f64>>` and
  # `OutTuple` adapters over the store forms
  'WorkloadBuilder' 'skyline_bnl\(' 'skyline_sfs\(' 'hash_join_project\('
  # the serving layer's epoch retry (an epoch is a pure function of its
  # batch, so it runs once) and its options no caller set; the engine's
  # own load shedding (`DegradationPolicy`) is not named here
  'WallRetryPolicy' 'with_retry' 'RegionFailed' 'is_transient' 'shed_floor'
  'NegotiationPolicy' 'SERVE_EPOCH_RETRIES' 'epoch_retries_total'
  'default_deadline_ms' 'attach_timeout_ms' 'full_retries'
  'RejectReason::Shedding'
)
scope=(crates tests src examples vendor ci .github .claude Cargo.toml
  clippy.toml .gitignore DESIGN.md README.md ':!tests/golden' ':!ci/guards.sh')

fail=0
violation() {
  echo "guard: $1"
  fail=1
}

pattern=$(IFS='|'; echo "${retired[*]}")
if git grep --untracked -nE "$pattern" -- "${scope[@]}"; then
  violation "retired names above are back"
fi

for f in crates/caqe-core/src/engine/*.rs; do
  if [ "$(wc -l < "$f")" -gt 600 ]; then
    violation "$f exceeds 600 lines"
  fi
done
allows=$(cat crates/caqe-core/src/engine/*.rs | grep -c 'too_many_arguments')
if [ "$allows" -gt 2 ]; then
  violation "engine/ holds $allows too_many_arguments allows (max 2)"
fi

if git grep --untracked -nE 'thread::(scope|spawn)' -- crates/caqe-core \
  crates/caqe-cuboid crates/caqe-parallel crates/caqe-regions \
  crates/caqe-operators crates/caqe-trace; then
  violation "an engine crate starts a thread"
fi

# S-JFSL is `EngineStrategy::S_JFSL`; `benchmark/src` compiles against the
# name `SJfslStrategy`, which stays as exactly one `pub const` of it.
defs=$(git grep --untracked -nE '\b(struct|const|static|fn|type|enum) SJfslStrategy\b' -- "${scope[@]}")
if [ "$(printf '%s\n' "$defs" | grep -c .)" -ne 1 ]; then
  printf '%s\n' "$defs"
  violation "expected exactly one definition of SJfslStrategy"
fi

# `ExecConfig::assume_dva` is inert: only its field, its doc and its default
# name it, so nothing reads it.
dva=$(git grep --untracked -nF 'assume_dva' -- crates src tests examples |
  grep -vE '^crates/caqe-core/src/config\.rs:[0-9]+:\s*(///.*|pub assume_dva: bool,|assume_dva: true,)$')
if [ -n "$dva" ]; then
  printf '%s\n' "$dva"
  violation "assume_dva is inert: only its field, doc and default in config.rs may name it"
fi

# `ExecConfig::parallelism` is inert; one test pins that, nothing else sets it.
setters=$(git grep --untracked -nF 'with_parallelism(Some' -- "${scope[@]}")
if [ "$(printf '%s\n' "$setters" | grep -c .)" -ne 1 ] ||
  ! printf '%s' "$setters" | grep -q '^tests/golden_traces.rs:'; then
  printf '%s\n' "$setters"
  violation "expected exactly one with_parallelism(Some setter, in tests/golden_traces.rs"
fi

exit "$fail"
