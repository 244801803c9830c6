//! # charfree-engine — compiled ADD kernels and the trace engine
//!
//! The construction side of the workspace (`charfree-core`) builds ADD
//! power models inside a [`charfree_dd::Manager`] arena: hash-consed,
//! cache-backed, ideal for symbolic manipulation, and deliberately *not*
//! optimised for raw evaluation throughput. This crate is the other half
//! of the story — once a model is frozen, it is **compiled** into a flat
//! kernel and evaluated in bulk:
//!
//! * [`Kernel`] — a topologically ordered vector of 12-byte branch
//!   instructions plus a dense terminal table, fully decoupled from the
//!   manager arena. `Send + Sync`, independently persistable
//!   ([`Kernel::save`] / [`Kernel::load`]), and validated on load.
//! * [`PatternBlock`] — column-packed `u64` bit-matrix staging for
//!   transition streams, one word per diagram variable per 64
//!   transitions; [`Kernel::eval_batch`] consumes it through the
//!   kernel's [`BatchEngine`], chosen once from the kernel's shape: a
//!   level-packed SoA gather (see [`soa`](self) internals; 256-lane
//!   branchless pair-level rounds over bounds-checked row indices) for
//!   small or shallow kernels, the 8-lane level-fused walk behind
//!   [`Kernel::eval_batch_reference_into`] for large ones. Both are
//!   bit-identical to that reference walk. Callers with several kernels
//!   (`charfree-seq`'s cycle stepper, `charfree-serve`'s batch
//!   dispatcher) make one [`Kernel::eval_batch_into`] call per kernel.
//! * [`TraceEngine`] — chunked, deterministic multi-threaded trace
//!   evaluation: results are bit-identical for any `--jobs` value.
//! * [`throughput`] — the measurement harness behind
//!   `charfree throughput` and `BENCH_engine.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `.unwrap()` is banned crate-wide; `.expect()` remains available for
// invariants with a stated justification, and tests are exempt.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod block;
mod engine;
mod kernel;
mod persist;
mod soa;
pub mod throughput;

pub use block::PatternBlock;
pub use engine::{TraceEngine, TraceSummary, DEFAULT_CHUNK};
pub use kernel::{BatchEngine, Instr, Kernel};
