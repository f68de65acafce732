//! deta-simnet: seeded, deterministic fault injection for the full DeTA
//! deployment, with a machine-checked invariant fleet.
//!
//! The paper's protocol is evaluated here the way a deployment runs it —
//! every node takes the step it takes on a thread or in a process of its
//! own, and the supervisor decides deadlines, blame and failover as it
//! does there — but on one thread: `DetaSession` steps the nodes on a
//! virtual clock while the network underneath executes a [`FaultPlan`] —
//! drop, duplicate, delay/reorder, corrupt-frame, partition, peer-crash
//! and link-restart faults — derived from a single `u64` seed. A
//! [`TapLog`] records every frame each node sees. The [`SimFleet`]
//! harness then machine-verifies, per run:
//!
//! 1. **Termination** — the run goes quiet and ends, either bit-identical
//!    to the fault-free session or with a structured error naming a node
//!    incident to a fired fault.
//! 2. **Privacy** — each aggregator's materialized state holds exactly
//!    the shuffled fragments of its own mapper partition, recomputed
//!    independently from party update logs and backed by tap frames.
//! 3. **Idempotence** — duplicated round announcements and replayed
//!    records leave final parameters unchanged.
//!
//! Determinism: fault decisions are keyed on per-link send-attempt
//! counters, the control plane is exempt from faults, the supervisor
//! sends each round's trigger once (it has no retry), and the executor steps nodes in a fixed order and moves
//! its clock only when nothing is left to step. A seed therefore always
//! yields the same verdict, however loaded the machine.
//!
//! Reproduce a sweep failure locally with
//! `cargo run -p deta-simnet --bin sim_sweep -- --seed <n>` or
//! `DETA_SIM_SEED=<n> cargo test -p deta-simnet seed_from_env`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod fleet;
pub mod sweep;
pub mod tap;

pub use fault::{Fault, FaultKind, FaultPlan, SimPolicy, Topology};
pub use fleet::{SeedReport, SimFleet, SimSpec, Verdict};
pub use tap::{TapLog, TapRecord};
