//! `pe-serve` — power estimation as a service.
//!
//! The paper's pitch is that power emulation makes estimation fast
//! enough to run *in the loop*; this crate turns the reproduction into
//! the matching system: a std-only, long-running daemon that accepts
//! estimation jobs — (design, stimulus seed, cycles, model config) —
//! from many concurrent clients over a line-oriented protocol (stdio or
//! TCP) and streams back structured results in the `pe-harness`
//! `key=value` events dialect.
//!
//! The headline is the scheduler ([`sched`]): pending requests for the
//! same (design, model) are packed — up to 128 at a time by default
//! (256 at most), round-robin across clients — into one
//! [`pe_tape::WideTapeSimulator`] run on the group's prepared,
//! translation-validated instruction tape, and each lane's
//! `read_energy_fj_lane` readout is demultiplexed back to its client.
//! A design whose tape does not compile or validate is refused at
//! admission (`tape_unverified`). The tape's lanes are bit-independent,
//! so a batched answer is bit-identical to a serial run of the same
//! job; batching buys the bit-parallel throughput (see
//! `BENCH_wide.json`) without changing a single result bit. Model resolution
//! goes through the shared content-addressed `ModelLibrary` cache
//! (multi-tenant, size-capped LRU), with hit/miss counters and all
//! serving metrics in a [`pe_trace::Registry`].
//!
//! Robustness contract: malformed input is a protocol `error` response,
//! a full queue is an explicit `rejected … retry_after_ms=…`, a client
//! disconnect orphans (never leaks) its in-flight jobs, and `shutdown`
//! drains everything accepted before the process exits 0.
//!
//! Dependency policy (§6 of DESIGN.md) holds: standard library only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;
pub mod sched;
pub mod server;

pub use proto::{
    parse_request, parse_response, ErrorCode, ModelChoice, ProtoError, RejectReason, Request,
    Response, ResultBody, SubmitRequest,
};
pub use sched::{Scheduler, ServeConfig};
pub use server::{serve_stdio, serve_tcp};
