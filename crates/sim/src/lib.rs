//! Cycle-accurate RTL simulation.
//!
//! This crate is the workspace's stand-in for an HDL simulator (the paper's
//! flow uses ModelSim): it executes a [`pe_rtl::Design`] with two-phase
//! synchronous semantics — combinational settle in topological order, then
//! a clock edge that captures registers and memories — and exposes exactly
//! the observability that power estimation needs: the value of every signal
//! at every cycle.
//!
//! Contents:
//!
//! * [`Simulator`] — the execution engine, with lazy settling so that
//!   reads after a clock edge always see consistent values.
//! * [`Testbench`] and [`run`] — the driver abstraction shared by the
//!   software power estimators, the emulation flow, and functional tests,
//!   built on [`SimControl`] so the same testbench drives a serial
//!   simulator or one lane of a bit-parallel engine.
//! * [`WideControl`] — the per-lane observation surface a bit-parallel
//!   engine exposes. The one such engine is the compiled instruction
//!   tape in `pe-tape`; this crate's [`Simulator`] is the serial
//!   reference oracle it is translation-validated and differentially
//!   tested against.
//!
//! # Example
//!
//! ```
//! use pe_rtl::builder::DesignBuilder;
//! use pe_sim::Simulator;
//!
//! let mut b = DesignBuilder::new("counter");
//! let clk = b.clock("clk");
//! let one = b.constant(1, 8);
//! let count = b.register_named("count", 8, 0, clk);
//! let next = b.add(count.q(), one);
//! b.connect_d(count, next);
//! b.output("count", count.q());
//! let design = b.finish().unwrap();
//!
//! let mut sim = Simulator::new(&design).unwrap();
//! for _ in 0..5 {
//!     sim.step();
//! }
//! assert_eq!(sim.output("count"), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod testbench;

pub use engine::Simulator;
pub use testbench::{run, ConstInputs, SimControl, Testbench, VectorTestbench, WideControl};
