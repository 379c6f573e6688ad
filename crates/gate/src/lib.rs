//! Gate-level substrate: technology cells, RTL-to-gate expansion, and
//! gate-level simulation with switched-energy accounting.
//!
//! The paper's macromodels are *characterization-based*: coefficients come
//! from observing the gate- or transistor-level implementation of each RTL
//! component (the original used NEC's CB130M 0.13 µm standard-cell
//! technology). We reproduce that pipeline end to end:
//!
//! * [`cells::CellLibrary`] — a synthetic 0.13 µm-class standard-cell
//!   library with per-toggle switching energies and leakage (documented in
//!   DESIGN.md as the CB130M substitution).
//! * [`netlist::GateNetlist`] — a flat netlist of 1-bit nets, two-input
//!   gates, D flip-flops, and SRAM macro blocks.
//! * [`expand`] — structural expansion of every
//!   [`pe_rtl::ComponentKind`] into gates (ripple-carry adders, array
//!   multipliers, barrel shifters, mux trees with constant folding, …),
//!   keeping a component→gates ownership map so energy can be attributed
//!   back to RTL components.
//! * [`GateSimulator`] — event-free levelized simulation that tracks
//!   per-cycle switched energy; this is the reference ("ground truth")
//!   power that macromodels are regressed against, and also the engine of
//!   the slow gate-level estimator baseline.
//!
//! # Example
//!
//! ```
//! use pe_rtl::builder::DesignBuilder;
//! use pe_gate::{expand::expand_design, cells::CellLibrary, GateSimulator};
//!
//! let mut b = DesignBuilder::new("adder");
//! let a = b.input("a", 8);
//! let c = b.input("b", 8);
//! let s = b.add_wide(a, c);
//! b.output("sum", s);
//! let design = b.finish().unwrap();
//!
//! let expanded = expand_design(&design);
//! let lib = CellLibrary::cmos130();
//! let mut sim = GateSimulator::new(&expanded, &lib);
//! sim.try_set_input("a", 100).unwrap();
//! sim.try_set_input("b", 55).unwrap();
//! assert_eq!(sim.try_output("sum").unwrap(), 155);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod expand;
pub mod netlist;
mod sim;

pub use sim::GateSimulator;
