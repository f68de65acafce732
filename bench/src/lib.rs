//! `roundbench`: the round-level benchmark of the DeTA reproduction.
//!
//! Two binaries share this library: `roundbench` measures the eight
//! end-to-end metrics of a workload with tracing and the counting
//! allocator off; `roundbench-traced` measures every layer from outside,
//! by timing calls into its public functions. See `bench/README.md`.

pub mod cli;
pub mod layers;
pub mod level1;
pub mod procfs;
pub mod reference;
pub mod repeat;
pub mod report;
pub mod run;
pub mod stats;
pub mod tap;
pub mod trace;
pub mod traced;
pub mod workload;
