#!/usr/bin/env bash
# Builds the benchmark and the gale-serve binary from this checkout, then
# runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); nothing but the result is
# printed on standard output.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# gale-serve is built through the repository's own manifest, so the served
# binary is exactly the shipped one.
cargo build --release --quiet --offline -p gale-serve --bin gale-serve >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
