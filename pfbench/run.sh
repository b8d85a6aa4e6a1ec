#!/usr/bin/env bash
# Build pfbench and the stock pitchforkd it serves from, then run pfbench
# with this script's arguments. Run from the repository root:
#
#   bash pfbench/run.sh --workload compile-figure --seed 1 --seconds 10 --trace 0
#
# Cargo's output goes to stderr, so the last line on stdout is pfbench's
# JSON result. CARGO_TARGET_DIR, when set, picks the build directory.
set -euo pipefail
cargo build --release --offline --quiet --manifest-path pfbench/Cargo.toml --bins >&2
exec "${CARGO_TARGET_DIR:-pfbench/target}/release/pfbench" "$@"
