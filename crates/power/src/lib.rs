//! Characterization-based RTL power macromodels.
//!
//! This crate implements the "power macromodel library" of the paper's
//! Section 2.1: for every RTL component class, a regression model that maps
//! the component's per-cycle input/output bit transitions to consumed
//! energy:
//!
//! ```text
//! Power = base + Σᵢ Coeffᵢ · T(xᵢ)
//! ```
//!
//! where `T(xᵢ)` is the transition count (0/1) of monitored bit `i`
//! (Benini et al.'s cycle-accurate linear regression form, the paper's
//! reference \[8\]).
//!
//! * [`Macromodel`] — the model: a baseline per-cycle energy plus one
//!   coefficient per monitored bit (the paper's form, and the only one).
//! * [`characterize`] — the characterization engine: builds an isolated
//!   instance of a component class, simulates it at the gate level with
//!   randomized stimuli, and fits the model by ridge-regularized least
//!   squares against the measured switched energy.
//! * [`ModelLibrary`] — the keyed collection with text (de)serialization;
//!   [`ModelLibrary::characterize_design`] populates a library with every
//!   class appearing in a design.
//!
//! # Example
//!
//! ```
//! use pe_rtl::builder::DesignBuilder;
//! use pe_power::{CharacterizeConfig, ModelLibrary};
//!
//! let mut b = DesignBuilder::new("d");
//! let a = b.input("a", 4);
//! let c = b.input("b", 4);
//! let s = b.add(a, c);
//! b.output("s", s);
//! let design = b.finish().unwrap();
//!
//! let mut lib = ModelLibrary::new();
//! let reports = lib
//!     .characterize_design(&design, &CharacterizeConfig::fast())
//!     .unwrap();
//! assert_eq!(reports.len(), 1); // one class: 4-bit adder
//! assert!(reports[0].r_squared > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod characterize;
mod library;
mod model;

pub use characterize::{
    characterize, is_modelled_kind, CharacterizationReport, CharacterizeConfig, CharacterizeError,
};
pub use library::{LibraryParseError, ModelLibrary};
pub use model::{Macromodel, ModelKey, MonitoredLayout};
