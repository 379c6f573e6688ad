//! The simulated FPGA emulation platform.
//!
//! The original flow synthesized the enhanced RTL with Synplify Pro,
//! placed-and-routed it with Xilinx tools, and executed it on a PC-based
//! Virtex-II emulation platform. None of that tooling (nor the silicon) is
//! available here, so this crate *simulates the platform itself*, end to
//! end:
//!
//! * [`device`] — Virtex-II-class device capacity models (LUTs,
//!   flip-flops, block RAMs, user I/O) for the family the paper used.
//! * [`lut`] — technology mapping of a gate netlist into 4-input LUTs
//!   (greedy single-fanout cone packing with constant folding), flip-flops
//!   and block-RAM macros.
//! * [`timing`] — unit-delay + fanout wire model static timing analysis
//!   over the mapped netlist, yielding the achievable emulation clock.
//! * [`partition`] — greedy topological multi-device partitioning with a
//!   cut-based clock penalty, for designs that exceed one device
//!   (the capacity concern the paper's closing section raises).
//! * [`emulate`] — a LUT-level functional simulator (used to verify that
//!   mapping preserved behaviour bit-for-bit) and the emulation-time
//!   model: `T = cycles / f_emu + host-side testbench time`, matching the
//!   paper's methodology of estimating emulation time from testbench
//!   simulation plus platform execution.
//!
//! # Example
//!
//! ```
//! use pe_rtl::builder::DesignBuilder;
//! use pe_gate::expand::expand_design;
//! use pe_fpga::lut::map_to_luts;
//! use pe_fpga::timing::analyze_timing;
//!
//! let mut b = DesignBuilder::new("add");
//! let x = b.input("a", 8);
//! let y = b.input("b", 8);
//! let s = b.add_wide(x, y);
//! b.output("s", s);
//! let design = b.finish().unwrap();
//!
//! let mapped = map_to_luts(&expand_design(&design).netlist);
//! let timing = analyze_timing(&mapped);
//! assert!(timing.fmax_mhz > 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod emulate;
pub mod lut;
pub mod partition;
pub mod timing;
