//! The repo benchmark as a library: workload generation, timed runs,
//! traced counters, layer probes and the arithmetic that turns samples
//! into the printed metrics. `src/main.rs` is the command; `tests/`
//! pins the arithmetic.

pub mod layers;
pub mod probes;
pub mod run;
pub mod stats;
pub mod sys;
pub mod workload;
