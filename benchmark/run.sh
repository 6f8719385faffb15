#!/usr/bin/env bash
# The repo's one benchmark command: builds the benchmark package (offline,
# release, its own workspace) and forwards every argument to it.
#
#   benchmark/run.sh                       all five workloads, untraced and traced
#   benchmark/run.sh --quick               the same at a tenth of the rows, one rep
#   benchmark/run.sh --verify-repeat       the whole suite twice, then the comparison
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/caqe-benchmark" --out "$here/out" "$@"
