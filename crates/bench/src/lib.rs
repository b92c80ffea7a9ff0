//! The paper's evaluation, reproduced: Table 1 and Figures 9–18.
//!
//! * The library ([`drivers`], [`measure`], [`figures`]) has a uniform driver
//!   over every index, thread-scaling measurement helpers, and one function
//!   per table/figure of the paper's evaluation that returns the data series
//!   the paper plots.
//! * The `figures` binary (`cargo run -p bench --release --bin figures`)
//!   runs those functions and prints paper-style rows.
//!
//! Absolute numbers depend on the machine; the paper's claims are about the
//! *relative* ordering and trends. Performance of this repository's own
//! stack is measured by the repository benchmark (`BENCHMARK.json`,
//! `benchmark/`), not here.

pub mod drivers;
pub mod figures;
pub mod measure;

pub use drivers::{AnyIndex, IndexKind, LockedMasstree};
pub use measure::{mops, parallel_lookup_mops, Timer};
