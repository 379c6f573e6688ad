//! Power emulation, end to end: the paper's Figure-2 design flow.
//!
//! This facade crate wires the substrates together:
//!
//! ```text
//!          RTL design ──► power model inference ──► enhanced RTL
//!                          (pe-power, pe-instrument)      │
//!                                                         ▼
//!          testbench ◄──────────────── FPGA synthesis, place & route
//!              │                        (pe-gate, pe-fpga)
//!              ▼                                          │
//!          execute on the emulation platform ◄────────────┘
//!          (pe-fpga timing/partitioning → emulation-time model;
//!           pe-sim executes the enhanced design functionally)
//! ```
//!
//! * [`PowerEmulationFlow`] — one-call flow: characterize → instrument →
//!   map → time; returns a [`FlowResult`] with the area, timing, and
//!   emulation-time picture, and can execute the enhanced design to read
//!   back power ([`PowerEmulationFlow::emulate_power`]).
//!   [`PowerEmulationFlow::stage_prepare`] builds the served form of a
//!   design — instrumented, linted, and compiled to a validated tape —
//!   for `pe-serve`, the lint bench, and the tests.
//! * [`accuracy`] — the "little or no tradeoff in accuracy" experiment:
//!   emulated vs. software vs. gate-level energies on one workload.
//! * [`figure3`] — the paper's evaluation: measured software-estimator
//!   wall-clock vs. modeled emulation time, per benchmark design.
//!
//! # Example
//!
//! ```no_run
//! use pe_core::PowerEmulationFlow;
//! use pe_designs::suite::{benchmark, Scale};
//!
//! let bench = benchmark("DCT").unwrap();
//! let flow = PowerEmulationFlow::new();
//! let result = flow.run(&bench.design).unwrap();
//! println!("emulation clock: {:.1} MHz on {} device(s)",
//!          result.timing.fmax_mhz, result.partition.devices);
//! let mut tb = bench.testbench_at(Scale::Test);
//! let power = flow.emulate_power(&result, tb.as_mut()).unwrap();
//! println!("average power: {:.1} µW", power.average_power_uw);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod figure3;
mod flow;

pub use flow::{EmulatedPower, FlowError, FlowResult, PowerEmulationFlow, Prepared};
