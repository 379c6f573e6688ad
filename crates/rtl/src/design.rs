//! The netlist container: signals, components, clocks, ports.

use crate::component::{Component, ComponentKind, WidthError};
use pe_util::bits;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

/// Identifier of a [`Signal`] within a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) u32);

/// Identifier of a [`Component`] within a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub(crate) u32);

/// Identifier of a [`ClockDomain`] within a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClockId(pub(crate) u32);

impl SignalId {
    /// The raw index (stable for the lifetime of the design).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ComponentId {
    /// The raw index (stable for the lifetime of the design).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ClockId {
    /// The raw index (stable for the lifetime of the design).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A multi-bit net. Signals are identified by [`SignalId`] and have a
/// unique name and a width of 1 to 64 bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signal {
    name: String,
    width: u32,
}

impl Signal {
    /// The signal's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Width in bits (1..=64).
    pub fn width(&self) -> u32 {
        self.width
    }
}

/// A clock domain. Sequential components belong to exactly one domain; the
/// simulator steps one domain at a time and the power-emulation transform
/// inserts one strobe generator per domain.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockDomain {
    name: String,
    /// Nominal period in nanoseconds, used to convert per-cycle energy to
    /// average power. Defaults to 10 ns (100 MHz).
    period_ns: f64,
}

impl ClockDomain {
    /// The domain's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Nominal clock period in nanoseconds.
    pub fn period_ns(&self) -> f64 {
        self.period_ns
    }
}

/// A named top-level port bound to a signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    name: String,
    signal: SignalId,
}

impl Port {
    /// The port name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The signal the port is bound to.
    pub fn signal(&self) -> SignalId {
        self.signal
    }
}

/// What drives a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Driver {
    /// Driven by a top-level input port.
    Input,
    /// Driven by the output of a component.
    Component(ComponentId),
}

/// Errors raised while constructing or validating a [`Design`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// A signal, component, clock, or port name is already taken.
    DuplicateName {
        /// The clashing name.
        name: String,
    },
    /// A referenced id does not belong to this design.
    UnknownId {
        /// Description of the bad reference.
        what: String,
    },
    /// Width rules of a component kind were violated.
    Width(WidthError),
    /// Two drivers contend for one signal.
    MultipleDrivers {
        /// The signal's name.
        signal: String,
    },
    /// A signal has no driver after construction.
    UndrivenSignal {
        /// The signal's name.
        signal: String,
    },
    /// A cycle exists through combinational components only.
    CombinationalCycle {
        /// Name of a component on the cycle.
        component: String,
    },
    /// A sequential component is missing a clock, or a combinational one
    /// has one.
    ClockMismatch {
        /// The component's name.
        component: String,
    },
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::DuplicateName { name } => write!(f, "duplicate name `{name}`"),
            DesignError::UnknownId { what } => write!(f, "unknown reference: {what}"),
            DesignError::Width(e) => write!(f, "width error: {e}"),
            DesignError::MultipleDrivers { signal } => {
                write!(f, "signal `{signal}` has multiple drivers")
            }
            DesignError::UndrivenSignal { signal } => {
                write!(f, "signal `{signal}` has no driver")
            }
            DesignError::CombinationalCycle { component } => {
                write!(f, "combinational cycle through component `{component}`")
            }
            DesignError::ClockMismatch { component } => write!(
                f,
                "component `{component}` has a clock/sequentiality mismatch"
            ),
        }
    }
}

impl std::error::Error for DesignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DesignError::Width(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WidthError> for DesignError {
    fn from(e: WidthError) -> Self {
        DesignError::Width(e)
    }
}

/// A flat RTL netlist.
///
/// Most users author designs through [`crate::builder::DesignBuilder`];
/// this type is the underlying model with incremental integrity checks.
/// Construction enforces locally checkable rules (unique names, width
/// rules, the single-driver rule, clock presence); [`Design::validate`]
/// adds the global ones (every signal driven, no combinational cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    name: String,
    signals: Vec<Signal>,
    components: Vec<Component>,
    clocks: Vec<ClockDomain>,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
    drivers: Vec<Option<Driver>>,
    /// Every signal, component and clock name, mapped to what it names:
    /// the three share one namespace. `Box<str>` keys keep an entry at
    /// 24 bytes; an instrumented DCT holds about 250k names.
    names: HashMap<Box<str>, Named>,
}

/// What a design-wide name refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Named {
    Signal(SignalId),
    Component(ComponentId),
    Clock(ClockId),
}

impl Design {
    /// Creates an empty design.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            signals: Vec::new(),
            components: Vec::new(),
            clocks: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            drivers: Vec::new(),
            names: HashMap::new(),
        }
    }

    /// The design's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn claim_name(&mut self, name: &str, named: Named) -> Result<(), DesignError> {
        match self.names.entry(name.into()) {
            Entry::Occupied(_) => Err(DesignError::DuplicateName {
                name: name.to_string(),
            }),
            Entry::Vacant(slot) => {
                slot.insert(named);
                Ok(())
            }
        }
    }

    /// Adds a clock domain with the default 10 ns period.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::DuplicateName`] if the name is taken.
    pub fn add_clock(&mut self, name: impl Into<String>) -> Result<ClockId, DesignError> {
        self.add_clock_with_period(name, 10.0)
    }

    /// Adds a clock domain with an explicit period in nanoseconds.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::DuplicateName`] if the name is taken.
    pub fn add_clock_with_period(
        &mut self,
        name: impl Into<String>,
        period_ns: f64,
    ) -> Result<ClockId, DesignError> {
        let name = name.into();
        let id = ClockId(self.clocks.len() as u32);
        self.claim_name(&name, Named::Clock(id))?;
        self.clocks.push(ClockDomain { name, period_ns });
        Ok(id)
    }

    /// Adds an internal signal.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::DuplicateName`] if the name is taken, or a
    /// width error if `width` is not in `1..=64`.
    pub fn add_signal(
        &mut self,
        name: impl Into<String>,
        width: u32,
    ) -> Result<SignalId, DesignError> {
        let name = name.into();
        if width == 0 || width > 64 {
            return Err(DesignError::Width(
                ComponentKind::Not.check_widths(&[width], 1).unwrap_err(),
            ));
        }
        let id = SignalId(self.signals.len() as u32);
        self.claim_name(&name, Named::Signal(id))?;
        self.signals.push(Signal { name, width });
        self.drivers.push(None);
        Ok(id)
    }

    /// Adds a top-level input port: creates the signal and marks it driven
    /// externally.
    ///
    /// # Errors
    ///
    /// Same as [`Design::add_signal`].
    pub fn add_input(
        &mut self,
        name: impl Into<String>,
        width: u32,
    ) -> Result<SignalId, DesignError> {
        let name = name.into();
        let sig = self.add_signal(name.clone(), width)?;
        self.drivers[sig.index()] = Some(Driver::Input);
        self.inputs.push(Port { name, signal: sig });
        Ok(sig)
    }

    /// Exposes an existing signal as a top-level output port.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::UnknownId`] for a foreign signal id and
    /// [`DesignError::DuplicateName`] if the port name clashes with another
    /// *port* (a port may share the name of the signal it exposes).
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        signal: SignalId,
    ) -> Result<(), DesignError> {
        let name = name.into();
        if signal.index() >= self.signals.len() {
            return Err(DesignError::UnknownId {
                what: format!("signal #{} for output port `{name}`", signal.index()),
            });
        }
        if self
            .outputs
            .iter()
            .chain(self.inputs.iter())
            .any(|p| p.name == name)
        {
            return Err(DesignError::DuplicateName { name });
        }
        self.outputs.push(Port { name, signal });
        Ok(())
    }

    /// Adds a component driving `output` from `inputs`.
    ///
    /// Sequential kinds must carry a clock; combinational kinds must not.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule: duplicate name, unknown ids, width
    /// rules, double-driven output, or clock mismatch.
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        kind: ComponentKind,
        inputs: &[SignalId],
        output: SignalId,
        clock: Option<ClockId>,
    ) -> Result<ComponentId, DesignError> {
        let name = name.into();
        for (pos, sig) in inputs.iter().enumerate() {
            if sig.index() >= self.signals.len() {
                return Err(DesignError::UnknownId {
                    what: format!("input #{pos} of component `{name}`"),
                });
            }
        }
        if output.index() >= self.signals.len() {
            return Err(DesignError::UnknownId {
                what: format!("output of component `{name}`"),
            });
        }
        if let Some(c) = clock {
            if c.index() >= self.clocks.len() {
                return Err(DesignError::UnknownId {
                    what: format!("clock of component `{name}`"),
                });
            }
        }
        if kind.is_sequential() != clock.is_some() {
            return Err(DesignError::ClockMismatch { component: name });
        }
        let in_widths: Vec<u32> = inputs
            .iter()
            .map(|s| self.signals[s.index()].width)
            .collect();
        let out_width = self.signals[output.index()].width;
        kind.check_widths(&in_widths, out_width)?;
        if self.drivers[output.index()].is_some() {
            return Err(DesignError::MultipleDrivers {
                signal: self.signals[output.index()].name.clone(),
            });
        }
        let id = ComponentId(self.components.len() as u32);
        self.claim_name(&name, Named::Component(id))?;
        self.drivers[output.index()] = Some(Driver::Component(id));
        self.components
            .push(Component::new(name, kind, inputs.to_vec(), output, clock));
        Ok(id)
    }

    /// All signals, indexable by [`SignalId::index`].
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// Every signal id, in index order.
    pub fn signal_ids(&self) -> impl Iterator<Item = SignalId> {
        (0..self.signals.len() as u32).map(SignalId)
    }

    /// All components, indexable by [`ComponentId::index`].
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// All clock domains, indexable by [`ClockId::index`].
    pub fn clocks(&self) -> &[ClockDomain] {
        &self.clocks
    }

    /// Top-level input ports, in declaration order.
    pub fn inputs(&self) -> &[Port] {
        &self.inputs
    }

    /// Top-level output ports, in declaration order.
    pub fn outputs(&self) -> &[Port] {
        &self.outputs
    }

    /// Looks up a signal by id.
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// Looks up a component by id.
    pub fn component(&self, id: ComponentId) -> &Component {
        &self.components[id.index()]
    }

    /// Finds a signal by name.
    pub fn find_signal(&self, name: &str) -> Option<SignalId> {
        match self.names.get(name) {
            Some(&Named::Signal(id)) => Some(id),
            _ => None,
        }
    }

    /// Finds a component by name.
    pub fn find_component(&self, name: &str) -> Option<ComponentId> {
        match self.names.get(name) {
            Some(&Named::Component(id)) => Some(id),
            _ => None,
        }
    }

    /// The [`ClockId`] for a clock index, if in range (useful for passes
    /// that iterate [`Design::clocks`]).
    pub fn clock_id(&self, index: usize) -> Option<ClockId> {
        (index < self.clocks.len()).then_some(ClockId(index as u32))
    }

    /// Finds a clock domain by name.
    pub fn find_clock(&self, name: &str) -> Option<ClockId> {
        match self.names.get(name) {
            Some(&Named::Clock(id)) => Some(id),
            _ => None,
        }
    }

    /// Finds an input port's signal by port name.
    pub fn find_input(&self, name: &str) -> Option<SignalId> {
        self.inputs
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.signal)
    }

    /// Finds an output port's signal by port name.
    pub fn find_output(&self, name: &str) -> Option<SignalId> {
        self.outputs
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.signal)
    }

    /// The component driving `signal`, if it is component-driven.
    pub fn driver_of(&self, signal: SignalId) -> Option<ComponentId> {
        match self.drivers[signal.index()] {
            Some(Driver::Component(c)) => Some(c),
            _ => None,
        }
    }

    /// Whether `signal` is driven by a top-level input port.
    pub fn is_input_driven(&self, signal: SignalId) -> bool {
        matches!(self.drivers[signal.index()], Some(Driver::Input))
    }

    /// Whether this is a unique, fresh name in the design — useful for
    /// instrumentation passes that generate names.
    pub fn is_name_free(&self, name: &str) -> bool {
        !self.names.contains_key(name)
    }

    /// Returns a fresh name based on `base` (appending `_2`, `_3`, … as
    /// needed).
    pub fn fresh_name(&self, base: &str) -> String {
        if self.is_name_free(base) {
            return base.to_string();
        }
        let mut n = 2;
        loop {
            let candidate = format!("{base}_{n}");
            if self.is_name_free(&candidate) {
                return candidate;
            }
            n += 1;
        }
    }

    /// Validates global integrity: every signal driven, no combinational
    /// cycles, every memory/register clocked (checked at insert but
    /// re-verified), and every port well-formed.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), DesignError> {
        if let Some(&s) = crate::validate::undriven_signals(self).first() {
            return Err(DesignError::UndrivenSignal {
                signal: self.signals[s.index()].name.clone(),
            });
        }
        crate::validate::topo_order(self)?;
        Ok(())
    }

    /// Total number of monitored bits if every component's inputs and
    /// output were observed — the `n` of the paper's macromodel equation,
    /// summed over the design.
    pub fn monitored_bits(&self) -> u64 {
        self.components
            .iter()
            .map(|c| {
                let ins: u64 = c
                    .inputs()
                    .iter()
                    .map(|s| self.signals[s.index()].width as u64)
                    .sum();
                ins + self.signals[c.output().index()].width as u64
            })
            .sum()
    }

    /// Checks that `value` fits the width of `signal`; used by simulators
    /// when applying external stimuli.
    pub fn value_fits(&self, signal: SignalId, value: u64) -> bool {
        value <= bits::mask(self.signals[signal.index()].width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_bit_adder() -> (Design, SignalId, SignalId, SignalId) {
        let mut d = Design::new("adder");
        let a = d.add_input("a", 2).unwrap();
        let b = d.add_input("b", 2).unwrap();
        let y = d.add_signal("y", 2).unwrap();
        d.add_component("add0", ComponentKind::Add, &[a, b], y, None)
            .unwrap();
        d.add_output("y", y).unwrap();
        (d, a, b, y)
    }

    #[test]
    fn construct_and_validate() {
        let (d, ..) = two_bit_adder();
        assert!(d.validate().is_ok());
        assert_eq!(d.signals().len(), 3);
        assert_eq!(d.components().len(), 1);
        assert_eq!(d.inputs().len(), 2);
        assert_eq!(d.outputs().len(), 1);
    }

    #[test]
    fn names_resolve_to_their_own_index() {
        let (mut d, ..) = two_bit_adder();
        let clk = d.add_clock("clk").unwrap();
        let q = d.add_signal("q", 2).unwrap();
        d.add_component(
            "q_reg",
            ComponentKind::Register {
                init: None,
                has_enable: false,
            },
            &[d.find_signal("y").unwrap()],
            q,
            Some(clk),
        )
        .unwrap();
        for (i, s) in d.signals().iter().enumerate() {
            assert_eq!(d.find_signal(s.name()).map(SignalId::index), Some(i));
            assert_eq!(d.find_component(s.name()), None, "{}", s.name());
        }
        for (i, c) in d.components().iter().enumerate() {
            assert_eq!(d.find_component(c.name()).map(ComponentId::index), Some(i));
            assert_eq!(d.find_signal(c.name()), None, "{}", c.name());
        }
        assert_eq!(d.find_clock("clk"), Some(clk));
        assert_eq!(d.find_signal("clk"), None);
        assert_eq!(d.find_component("clk"), None);
        assert_eq!(d.find_clock("q"), None);
        assert_eq!(d.find_signal("nope"), None);
        assert_eq!(
            d.signal_ids().map(SignalId::index).collect::<Vec<_>>(),
            (0..d.signals().len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut d = Design::new("t");
        d.add_signal("x", 4).unwrap();
        assert!(matches!(
            d.add_signal("x", 4),
            Err(DesignError::DuplicateName { .. })
        ));
    }

    #[test]
    fn double_drive_rejected() {
        let mut d = Design::new("t");
        let a = d.add_input("a", 4).unwrap();
        let y = d.add_signal("y", 4).unwrap();
        d.add_component("n1", ComponentKind::Not, &[a], y, None)
            .unwrap();
        assert!(matches!(
            d.add_component("n2", ComponentKind::Not, &[a], y, None),
            Err(DesignError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn clock_mismatch_rejected() {
        let mut d = Design::new("t");
        let a = d.add_input("a", 4).unwrap();
        let y = d.add_signal("y", 4).unwrap();
        // Combinational with clock:
        let clk = d.add_clock("clk").unwrap();
        assert!(matches!(
            d.add_component("n1", ComponentKind::Not, &[a], y, Some(clk)),
            Err(DesignError::ClockMismatch { .. })
        ));
        // Sequential without clock:
        assert!(matches!(
            d.add_component(
                "r1",
                ComponentKind::Register {
                    init: Some(0),
                    has_enable: false
                },
                &[a],
                y,
                None
            ),
            Err(DesignError::ClockMismatch { .. })
        ));
    }

    #[test]
    fn undriven_signal_fails_validation() {
        let mut d = Design::new("t");
        d.add_signal("orphan", 4).unwrap();
        assert!(matches!(
            d.validate(),
            Err(DesignError::UndrivenSignal { .. })
        ));
    }

    #[test]
    fn unknown_ids_rejected() {
        let mut d1 = Design::new("a");
        let mut d2 = Design::new("b");
        let s1 = d1.add_input("x", 4).unwrap();
        let y2 = d2.add_signal("y", 4).unwrap();
        // s1 has index 0, valid in d2 only if d2 has a signal 0 — craft a
        // clearly out-of-range id instead.
        let bogus = SignalId(99);
        assert!(matches!(
            d2.add_component("n", ComponentKind::Not, &[bogus], y2, None),
            Err(DesignError::UnknownId { .. })
        ));
        let _ = s1;
    }

    #[test]
    fn lookup_by_name() {
        let (d, a, ..) = two_bit_adder();
        assert_eq!(d.find_signal("a"), Some(a));
        assert_eq!(d.find_input("a"), Some(a));
        assert!(d.find_component("add0").is_some());
        assert_eq!(d.find_output("y"), d.find_signal("y"));
        assert_eq!(d.find_signal("zzz"), None);
    }

    #[test]
    fn fresh_name_generation() {
        let (d, ..) = two_bit_adder();
        assert_eq!(d.fresh_name("novel"), "novel");
        assert_eq!(d.fresh_name("a"), "a_2");
    }

    #[test]
    fn monitored_bits_counts_io() {
        let (d, ..) = two_bit_adder();
        // adder: 2+2 input bits + 2 output bits
        assert_eq!(d.monitored_bits(), 6);
    }

    #[test]
    fn driver_queries() {
        let (d, a, _, y) = two_bit_adder();
        assert!(d.is_input_driven(a));
        assert!(!d.is_input_driven(y));
        assert_eq!(d.driver_of(y), d.find_component("add0"));
        assert_eq!(d.driver_of(a), None);
    }

    #[test]
    fn output_port_may_share_signal_name() {
        let mut d = Design::new("t");
        let a = d.add_input("a", 1).unwrap();
        let y = d.add_signal("y", 1).unwrap();
        d.add_component("buf", ComponentKind::Not, &[a], y, None)
            .unwrap();
        assert!(d.add_output("y", y).is_ok());
        // But a second port of the same name is rejected.
        assert!(d.add_output("y", y).is_err());
    }

    #[test]
    fn value_fits_checks_width() {
        let (d, a, ..) = two_bit_adder();
        assert!(d.value_fits(a, 3));
        assert!(!d.value_fits(a, 4));
    }
}
