#!/usr/bin/env bash
# Full local gate: build, tests, rustdoc, formatting, and clippy with
# warnings as errors — which is also where the threat-model rules run
# (clippy.toml and the per-file lint levels, DESIGN.md §6; that a key is
# never printed, compared or copied is deta_crypto::Secret's compile_fail
# doctests, not a lint).
# Run from anywhere inside the workspace; requires no network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
# `default-members` is the root package plus every crate, so this also
# builds the CLI, drill and bench binaries the later stages exec.
cargo build --release

echo "==> cargo test -q"
# Every crate's tests, not just the root package's tests/: the cipher,
# MAC and RNG known answers, the GEMM and aggregation-kernel properties,
# the wire layer's and control-plane codec's rejection cases, the
# framing / replay-window / resume properties, the trace-merge
# properties, the simnet and drill suites and the CLI's multi-process
# and cluster-fault drills all live in crates/: the multi-process parity
# run diffed whole against in-process and the traced cluster's merged
# timeline (deta-cli/tests/multi_process.rs), and the chaos run whose
# hub severs a party's link and an aggregator's twice each
# (deta-cli/tests/cluster_faults.rs). So do the 200-seed x2
# sim corpus against results/SIM_SEEDS.json (deta-simnet/tests/corpus.rs;
# DETA_SIM_REWRITE=1 sim_sweep regenerates it) and the drill report
# against results/SECURITY_DRILLS.md, byte for byte
# (deta-drills/tests/drills_pass.rs; security_drills --out refreshes it).
cargo test -q

echo "==> vector bodies this host exercised"
# Nothing but the CPU selects a GEMM body (an AVX-512F 8 x 32 intrinsics
# tile, else the portable 4 x 16 tile compiled for AVX2, else for the
# baseline target), a ChaCha20/Poly1305 body or a Gaussian-sampler body
# (DetRng::fill_gaussian: the eight-lane ln/cos kernel compiled for
# AVX-512F, else for the baseline target). `cargo test` above built
# deta-tensor, deta-crypto, deta-core and deta-bignum at opt-level 3 (the
# root Cargo.toml's test-profile overrides, debug assertions on), so the
# bodies-against-reference properties and the known answers met the
# vectorised code a release build runs. Say which bodies that was, so a
# runner without AVX-512F cannot pass silently.
CPU_FLAGS=" $(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null | cut -d: -f2) "
BODIES="portable GEMM, scalar ChaCha20/Poly1305, portable Gaussian sampler"
[[ "$CPU_FLAGS" == *" avx2 "* ]] && BODIES="$BODIES, avx2 (4 x 16 GEMM tile, 8-lane ChaCha20)"
if [[ "$CPU_FLAGS" == *" avx512f "* ]]; then
  echo "    exercised: $BODIES, avx512f (8 x 32 GEMM tile, 16-lane ChaCha20, 8-lane Poly1305, 8-lane Gaussian sampler)"
else
  echo "    exercised: $BODIES"
  echo "    AVX-512F bodies not exercised: this CPU reports no avx512f"
fi

echo "==> frozen bench/ against this workspace (builds and runs its contract tests)"
# bench/ is a workspace of its own (BENCHMARK.json forbids editing it),
# so tier-1 never compiles it — yet it calls the workspace's public API
# by name: SecureChannel::{seal_msg,open_msg}, Msg::{encode,decode},
# SocketFrame::{encode,decode}, encode_frame, FrameDecoder::{new,push,
# try_next}, Transformer::{transform,inverse}, run_node, seats_for,
# SocketHub::bind, setup_detached (whose DetachedNodes is a roster: the
# nodes' names and the aggregators' token keys, no node, since the
# coordinator builds none), SessionParts.eval_model,
# GuestImage::new, AttestationProxy::{new,verify_and_provision} (its
# attestation layer), Aggregation::aggregate(&[Vec<f32>], &[f32]) (its
# kernel layer; the node aggregates through aggregate_into), Network::new's
# LinkModel parameter (which nothing
# reads) and the polling Party/AggregatorNode calls of level1.rs — which
# no session calls any more (both step deta_core::node), so they are
# bench- and test-only. A signature moved from under it fails here, not
# later when the benchmark is built.
# Building it rewrites its (stale, frozen) Cargo.lock; put that back.
# Anything else that differs from the commit under bench/ or in
# BENCHMARK.json is an edit to the frozen harness: fail here, by name.
cargo test --offline -q --manifest-path bench/Cargo.toml
git checkout -- bench/Cargo.lock 2>/dev/null || true
FROZEN_EDITS="$(git status --porcelain -- bench BENCHMARK.json)"
if [ -n "$FROZEN_EDITS" ]; then
  echo "FAIL: the frozen benchmark harness differs from the commit:" >&2
  echo "$FROZEN_EDITS" >&2
  exit 1
fi

echo "==> telemetry overhead (4 parties x 4 aggregators, gate: <5% enabled, <1% disabled)"
# Prints both overheads and exits non-zero past either gate; no other
# test checks this bound.
cargo run --release -q -p deta-bench --bin telemetry_overhead

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# A doc link to an item that was removed, made private or became
# ambiguous fails here rather than rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings (threat-model rules included)"
# Besides the default lints this carries the threat-model rules: the
# root clippy.toml disallows Secret::expose, Condvar::wait and a bare
# mpsc recv, and the files that must not panic, truncate on the wire,
# iterate a hash table or drop a protocol message in a wildcard deny
# the lint that says so (DESIGN.md §6). A file that may read a key says
# why in an `expect`, which fails here once it goes stale.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> all checks passed"
