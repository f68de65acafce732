#!/usr/bin/env bash
# Full local gate: build, tests (including the deta-lint clean check in
# tests/lint_clean.rs: seven rules, an allowlist with no entry — that a
# key is never printed, compared or copied is deta_crypto::Secret's
# compile_fail doctests, not a lint), formatting, and clippy with
# warnings as errors.
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
# framing / replay-window / resume properties, the lint fixtures, the
# trace-merge properties, the simnet and drill suites and the CLI's
# multi-process and cluster-fault drills all live in crates/.
cargo test -q

echo "==> deta-tensor under optimisation (the GEMM's vector body only exists there)"
# The tile is plain arithmetic the compiler vectorises; a debug build
# runs it scalar, so the AVX2-vs-portable and reference properties only
# meet the real vector code in a release build.
cargo test --release -q -p deta-tensor

echo "==> deta-core under optimisation (the sorting network's vector body only exists there)"
# The compare-exchange over a tile's lanes is a scalar loop in a debug
# build; the reference properties and the known answers only meet the
# vectorised kernel in a release build.
cargo test --release -q -p deta-core
cargo test --release -q --test agg_kat

echo "==> frozen bench/ against this workspace (builds and runs its contract tests)"
# bench/ is a workspace of its own (BENCHMARK.json forbids editing it),
# so tier-1 never compiles it — yet it calls the workspace's public API
# by name: SecureChannel::{seal_msg,open_msg}, Msg::{encode,decode},
# SocketFrame::{encode,decode}, encode_frame, FrameDecoder::{new,push,
# try_next}, Transformer::{transform,inverse}, run_node, seats_for,
# SocketHub::bind, setup_detached, SessionParts.eval_model and the
# polling Party/AggregatorNode calls of level1.rs. A signature moved
# from under it fails here, not in the driver after the PR is cut.
# Building it rewrites its (stale, frozen) Cargo.lock; put that back.
cargo test --offline -q --manifest-path bench/Cargo.toml
git checkout -- bench/Cargo.lock 2>/dev/null || true

echo "==> sim sweep (200 seeds x2, verdict determinism + corpus verify)"
# Wall-clock is bounded by the fleet's supervisor deadlines (SimSpec);
# the corpus in results/SIM_SEEDS.json is verified, not rewritten — set
# DETA_SIM_REWRITE=1 after an intentional behaviour change.
cargo run --release -q -p deta-simnet --bin sim_sweep

echo "==> telemetry overhead (4 parties x 4 aggregators, gate: <5% enabled, <1% disabled)"
# Writes BENCH_telemetry.json to a temp dir (set DETA_BENCH_REWRITE=1 to
# refresh the committed results/ copy); exits non-zero past either gate.
cargo run --release -q -p deta-bench --bin telemetry_overhead

echo "==> recovery latency (4 parties x 4 aggregators, gate: a stalled follower heals)"
# Writes BENCH_recovery.json to a temp dir (DETA_BENCH_REWRITE=1 to
# refresh results/): one stalled follower must heal under
# FailoverPolicy::Restart; reports the healing latency.
cargo run --release -q -p deta-bench --bin recovery_latency

echo "==> reconnect latency (parity-gated TCP severs)"
# Writes BENCH_reconnect.json to a temp dir (DETA_BENCH_REWRITE=1 to
# refresh results/); runs the bridged session fault-free and under
# injected TCP severs, asserting bit-exact metrics throughout, and
# reports the recovery cost per reconnect.
cargo run --release -q -p deta-bench --bin reconnect_latency

echo "==> adversarial drills (>=10 attacks, each must be rejected with the right error)"
# Regenerates the drill report to a temp path and diffs it against the
# committed results/SECURITY_DRILLS.md: any FAIL row, any new drill, or
# any changed rejection string shows up as a diff and fails the gate.
# The report is deterministic by construction (structured errors only,
# no timings or addresses). Run with DETA_BENCH_REWRITE unset — the
# committed copy is refreshed by rerunning the binary with
# --out results/SECURITY_DRILLS.md after an intentional change.
DRILLS_OUT="$(mktemp /tmp/deta-drills-XXXXXX.md)"
timeout 600 ./target/release/security_drills --out "$DRILLS_OUT"
if ! diff "$DRILLS_OUT" results/SECURITY_DRILLS.md; then
  echo "FAIL: regenerated drill report diverges from results/SECURITY_DRILLS.md" >&2
  echo "      (rerun: cargo run --release -p deta-drills --bin security_drills -- --out results/SECURITY_DRILLS.md)" >&2
  exit 1
fi
rm -f "$DRILLS_OUT"
echo "    drill report deterministic and matches committed copy"

echo "==> multi-process parity smoke (real OS processes over TCP loopback)"
# One process per node via `deta-cli cluster`, fixed seed, round lines
# diffed byte-for-byte against the same run in-process. The hard
# timeout turns any wedged child/coordinator into a loud failure.
SMOKE_CFG="$(mktemp /tmp/deta-smoke-XXXXXX.cfg)"
cat > "$SMOKE_CFG" <<'CFG'
dataset            = mnist
resolution         = 8
model              = mlp
parties            = 3
aggregators        = 2
rounds             = 2
algorithm          = avg
seed               = 42
examples_per_party = 40
CFG
timeout 300 ./target/release/deta-cli cluster "$SMOKE_CFG" --inprocess > /tmp/deta-smoke-local.txt
timeout 300 ./target/release/deta-cli cluster "$SMOKE_CFG"             > /tmp/deta-smoke-remote.txt
rm -f "$SMOKE_CFG"
if ! diff /tmp/deta-smoke-local.txt /tmp/deta-smoke-remote.txt; then
  echo "FAIL: multi-process round metrics diverged from in-process" >&2
  exit 1
fi
echo "    parity ok: $(grep -c '^round ' /tmp/deta-smoke-local.txt) rounds bit-identical"

echo "==> link-chaos smoke (hub severs a party's TCP link twice and an aggregator's once; run must stay bit-identical)"
# Same workload as the parity smoke plus a chaos plan: the hub cuts
# party-1's connection abruptly (no Bye) after its 2nd and 5th ingress
# frames and agg-0's after its 3rd, so a resume runs in both directions
# over buffers that acknowledgements have been pruning. Reconnect +
# resume must make the severs invisible — the stdout (every round's
# metrics and byte counts) is diffed byte-for-byte against the
# fault-free multi-process run.
CHAOS_CFG="$(mktemp /tmp/deta-chaos-XXXXXX.cfg)"
cat > "$CHAOS_CFG" <<'CFG'
dataset            = mnist
resolution         = 8
model              = mlp
parties            = 3
aggregators        = 2
rounds             = 2
algorithm          = avg
seed               = 42
examples_per_party = 40
chaos_severs       = party-1@2,party-1@5,agg-0@3
CFG
timeout 300 ./target/release/deta-cli cluster "$CHAOS_CFG" > /tmp/deta-chaos-smoke.txt
rm -f "$CHAOS_CFG"
if ! diff /tmp/deta-smoke-remote.txt /tmp/deta-chaos-smoke.txt; then
  echo "FAIL: round metrics diverged under link chaos" >&2
  exit 1
fi
echo "    chaos ok: 2 severs of party-1 and 1 of agg-0 fully absorbed, output bit-identical"

echo "==> multi-process trace smoke (deta-cli trace: merged timeline + critical path)"
# The traced twin of the parity smoke at the paper's 4-party / k=2
# shape: spawns one traced process per node, harvests every
# flight-recorder ring over the socket, clock-aligns them, and must
# produce a non-empty merged JSONL + Perfetto trace plus the per-round
# critical-path report. The run is fault-free and a bridged name is a
# forwarded endpoint at both ends of its link, so the merged trace must
# not hold a single net_drop: a drop means a loss. Outputs land in
# results/traces/ (gitignored; CI uploads them as artifacts).
TRACE_CFG="$(mktemp /tmp/deta-trace-XXXXXX.cfg)"
cat > "$TRACE_CFG" <<'CFG'
dataset            = mnist
resolution         = 8
model              = mlp
parties            = 4
aggregators        = 2
rounds             = 3
algorithm          = avg
seed               = 42
examples_per_party = 40
CFG
rm -f results/traces/merged-*
timeout 300 ./target/release/deta-cli trace "$TRACE_CFG" > /tmp/deta-trace-smoke.txt
rm -f "$TRACE_CFG"
MERGED_JSONL="$(ls results/traces/merged-*.jsonl 2>/dev/null | head -1)"
MERGED_PERFETTO="$(ls results/traces/merged-*.perfetto.json 2>/dev/null | head -1)"
if [ ! -s "$MERGED_JSONL" ] || [ ! -s "$MERGED_PERFETTO" ]; then
  echo "FAIL: deta-cli trace produced no merged trace under results/traces/" >&2
  exit 1
fi
if ! grep -q '^round 1 ' /tmp/deta-trace-smoke.txt || \
   ! grep -q 'critical path' /tmp/deta-trace-smoke.txt; then
  echo "FAIL: trace smoke output is missing rounds or the critical-path report" >&2
  cat /tmp/deta-trace-smoke.txt >&2
  exit 1
fi
if grep -q '"net_drop"' "$MERGED_JSONL"; then
  echo "FAIL: a fault-free trace recorded $(grep -c '"net_drop"' "$MERGED_JSONL") net_drop event(s)" >&2
  exit 1
fi
echo "    merged trace ok: $(wc -l < "$MERGED_JSONL") records, no net_drop, perfetto $(wc -c < "$MERGED_PERFETTO") bytes"

echo "==> bench regression history (diff BENCH_*.json vs results/BENCH_history.jsonl)"
# Warn-by-default: drift beyond tolerance prints loudly but does not
# fail the gate (pass --strict on release branches). The committed
# history only gains lines under DETA_BENCH_REWRITE=1, mirroring the
# snapshot policy above. CI uploads the report as an artifact.
cargo run --release -q -p deta-bench --bin bench_report | tee results/bench-report.txt

echo "==> deta-lint self-check (fixture coverage per rule, allowlist cap)"
# Fails when any registered rule has fewer than two fixture references
# or the allowlist exceeds MAX_ALLOW_ENTRIES.
cargo run --release -q -p deta-lint -- --self-check

echo "==> deta-lint JSON report -> results/lint-report.json"
# Machine-readable lint report; CI uploads it as an artifact. The exit
# code still gates: any unsuppressed violation fails the run.
mkdir -p results
cargo run --release -q -p deta-lint -- --json > results/lint-report.json

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> all checks passed"
