#!/usr/bin/env bash
# Builds the benchmark and the real rte-client binary it spawns, then
# runs the benchmark with the arguments given. Run from the repository
# root:
#
#   bash bench_e2e/run.sh                      # every workload, whole ledger
#   bash bench_e2e/run.sh --workload table3_quick --seed 42 --seconds 10 --trace 0
#
# Both binaries come from one cargo invocation in the benchmark's own
# workspace, so the library crates are compiled once. Build output goes
# to $CARGO_TARGET_DIR (default target/bench_e2e, which .gitignore
# covers); cargo resolves a relative value against the working
# directory, and so does the exec below.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/bench_e2e}"
# cargo's own progress goes to stderr; stdout stays the benchmark's.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" \
    -p bench_e2e --bin bench_e2e \
    -p decentralized_routability --bin rte-client >&2
exec "$CARGO_TARGET_DIR/release/bench_e2e" "$@"
