//! CrAQR's end-to-end benchmark: seeded workloads driven through the
//! public API on the serial executor, closed loop (each epoch starts when
//! the previous one finishes), with a wall-clock layer trace taken from
//! outside the program. See `README.md` in this directory.

pub mod harness;
pub mod host;
pub mod measure;
pub mod workload;
