#!/usr/bin/env bash
# The command BENCHMARK.json names: build both binaries from source into
# the Cargo target directory, then hand the driver's arguments
# (--workload W --seed N --seconds S --trace 0|1) to roundbench, which
# passes --trace 1 on to roundbench-traced.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/roundbench" "$@"
