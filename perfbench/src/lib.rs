//! End-to-end and per-layer benchmark of the `ecas` reproduction.
//!
//! Four fixed-size batch workloads (see `README.md`) are repeated for a
//! measured time with one thread. An untraced run gives the end-to-end
//! metrics; a traced run adds spans around every layer call and derives
//! each layer's self time and the program's own work counters.

pub mod layers;
pub mod spans;
pub mod workloads;
