#!/usr/bin/env bash
# Builds the benchmark crate from source and runs it from the repository
# root. Every argument goes to the binary:
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--aa]
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# A relative CARGO_TARGET_DIR is resolved against the working directory, by
# cargo and by the path to the binary below alike.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2

BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc -V)"
export BENCH_COMMIT BENCH_RUSTC
exec "$CARGO_TARGET_DIR/release/bandana-benchmark" "$@"
