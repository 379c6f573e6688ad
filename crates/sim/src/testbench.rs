//! Testbench abstraction: the stimulus/observation driver shared by
//! functional simulation, software power estimation, and power emulation.

use crate::engine::Simulator;
use pe_rtl::SignalId;
use pe_util::PortError;
use std::collections::HashMap;

/// The control surface a [`Testbench`] drives.
///
/// Both the serial [`Simulator`] and a single lane of a bit-parallel
/// engine (the compiled tape in `pe-tape`) implement this trait, so the
/// *same* testbench object can stimulate a lone simulation or one lane
/// of a wide pack — the differential-testing contract is that the two
/// are indistinguishable through this interface.
pub trait SimControl {
    /// Number of clock edges stepped so far.
    fn cycle(&self) -> u64;

    /// Drives a top-level input signal.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is not input-driven or `value` does not fit its
    /// width — both are testbench bugs.
    fn set_input(&mut self, signal: SignalId, value: u64);

    /// Drives a top-level input by port name.
    ///
    /// # Errors
    ///
    /// [`PortError::NoSuchInput`] if no such input port exists, or
    /// [`PortError::ValueTooWide`] if the value does not fit.
    fn try_set_input_by_name(&mut self, name: &str, value: u64) -> Result<(), PortError>;

    /// Current value of a named output port.
    ///
    /// # Errors
    ///
    /// [`PortError::NoSuchOutput`] if no such output port exists.
    fn try_output(&mut self, name: &str) -> Result<u64, PortError>;

    /// Current value of a signal (settling first if needed).
    fn value(&mut self, signal: SignalId) -> u64;

    /// Drives a top-level input by port name.
    ///
    /// # Panics
    ///
    /// Panics if no such input port exists or the value does not fit.
    fn set_input_by_name(&mut self, name: &str, value: u64) {
        self.try_set_input_by_name(name, value)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Current value of a named output port.
    ///
    /// # Panics
    ///
    /// Panics if no such output port exists.
    fn output(&mut self, name: &str) -> u64 {
        self.try_output(name).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The per-lane observation surface a lane-word engine exposes.
///
/// The compiled-tape interpreter in `pe-tape` implements this trait at
/// every [`pe_util::lanes::LaneWord`] width, so lane-indexed readouts —
/// instrumented energy accumulators, waveform strobes, serve-side result
/// gathers — are written once against the trait and run at any width.
pub trait WideControl {
    /// Current value of a named output port in one lane.
    ///
    /// # Errors
    ///
    /// [`PortError::NoSuchOutput`] if no such output port exists.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= `[`WideControl::lanes`].
    fn try_output_lane(&mut self, name: &str, lane: usize) -> Result<u64, PortError>;

    /// Number of lanes this engine instantiation evaluates per pass.
    fn lanes(&self) -> usize;
}

impl SimControl for Simulator<'_> {
    fn cycle(&self) -> u64 {
        Simulator::cycle(self)
    }

    fn set_input(&mut self, signal: SignalId, value: u64) {
        Simulator::set_input(self, signal, value);
    }

    fn try_set_input_by_name(&mut self, name: &str, value: u64) -> Result<(), PortError> {
        Simulator::try_set_input_by_name(self, name, value)
    }

    fn try_output(&mut self, name: &str) -> Result<u64, PortError> {
        Simulator::try_output(self, name)
    }

    fn value(&mut self, signal: SignalId) -> u64 {
        Simulator::value(self, signal)
    }
}

/// A testbench drives a design's inputs cycle-by-cycle and may observe
/// outputs. The same testbench object can be replayed against the software
/// estimators and the emulated instrumented design, matching the paper's
/// setup where the *same* test stimuli exercise both flows.
pub trait Testbench {
    /// Total number of clock cycles to run.
    fn cycles(&self) -> u64;

    /// Applies the inputs for `cycle` (0-based, called before the clock
    /// edge of that cycle).
    fn apply(&mut self, cycle: u64, sim: &mut dyn SimControl);

    /// Observes outputs after the settle for `cycle`'s inputs but before
    /// the clock edge. The default does nothing.
    fn observe(&mut self, cycle: u64, sim: &mut dyn SimControl) {
        let _ = (cycle, sim);
    }
}

/// Runs a testbench to completion: for each cycle, applies the inputs,
/// lets the testbench observe the settled network, then steps the clock.
/// Returns the number of cycles executed.
pub fn run(sim: &mut Simulator<'_>, tb: &mut dyn Testbench) -> u64 {
    let cycles = tb.cycles();
    for cycle in 0..cycles {
        tb.apply(cycle, &mut *sim);
        tb.observe(cycle, &mut *sim);
        sim.step();
    }
    cycles
}

/// A testbench that holds every input constant for a fixed number of
/// cycles — useful for letting autonomous designs (FSM-driven) run.
#[derive(Debug, Clone)]
pub struct ConstInputs {
    cycles: u64,
    values: Vec<(SignalId, u64)>,
}

impl ConstInputs {
    /// Creates a constant-input testbench.
    pub fn new(cycles: u64, values: Vec<(SignalId, u64)>) -> Self {
        Self { cycles, values }
    }
}

impl Testbench for ConstInputs {
    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn apply(&mut self, _cycle: u64, sim: &mut dyn SimControl) {
        for (sig, v) in &self.values {
            sim.set_input(*sig, *v);
        }
    }
}

/// A testbench replaying explicit per-cycle vectors, keyed by input port
/// name. Missing ports hold their previous value. Optionally records a
/// named output each cycle.
#[derive(Debug, Clone, Default)]
pub struct VectorTestbench {
    vectors: Vec<HashMap<String, u64>>,
    watch: Option<String>,
    captured: Vec<u64>,
}

impl VectorTestbench {
    /// Creates an empty vector testbench.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one cycle's input assignments.
    pub fn push_cycle(&mut self, assignments: &[(&str, u64)]) -> &mut Self {
        self.vectors.push(
            assignments
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        );
        self
    }

    /// Watches an output port, capturing its settled value every cycle.
    pub fn watch_output(&mut self, port: &str) -> &mut Self {
        self.watch = Some(port.to_string());
        self
    }

    /// The captured values of the watched output (one per executed cycle).
    pub fn captured(&self) -> &[u64] {
        &self.captured
    }
}

impl Testbench for VectorTestbench {
    fn cycles(&self) -> u64 {
        self.vectors.len() as u64
    }

    fn apply(&mut self, cycle: u64, sim: &mut dyn SimControl) {
        for (name, value) in &self.vectors[cycle as usize] {
            sim.set_input_by_name(name, *value);
        }
    }

    fn observe(&mut self, _cycle: u64, sim: &mut dyn SimControl) {
        if let Some(port) = &self.watch {
            let v = sim.output(port);
            self.captured.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_rtl::builder::DesignBuilder;
    use pe_rtl::Design;

    fn accumulator() -> Design {
        let mut b = DesignBuilder::new("acc");
        let clk = b.clock("clk");
        let x = b.input("x", 8);
        let acc = b.register_named("acc", 8, 0, clk);
        let sum = b.add(acc.q(), x);
        b.connect_d(acc, sum);
        b.output("total", acc.q());
        b.finish().unwrap()
    }

    #[test]
    fn vector_testbench_replays_and_captures() {
        let d = accumulator();
        let mut sim = Simulator::new(&d).unwrap();
        let mut tb = VectorTestbench::new();
        tb.push_cycle(&[("x", 1)])
            .push_cycle(&[("x", 2)])
            .push_cycle(&[("x", 3)])
            .push_cycle(&[]) // x holds at 3
            .watch_output("total");
        let n = run(&mut sim, &mut tb);
        assert_eq!(n, 4);
        // total is acc.q *before* each edge: 0, 1, 3, 6
        assert_eq!(tb.captured(), &[0, 1, 3, 6]);
        assert_eq!(sim.output("total"), 9);
    }

    #[test]
    fn const_inputs_run_fixed_cycles() {
        let d = accumulator();
        let x = d.find_input("x").unwrap();
        let mut sim = Simulator::new(&d).unwrap();
        let mut tb = ConstInputs::new(5, vec![(x, 2)]);
        run(&mut sim, &mut tb);
        assert_eq!(sim.output("total"), 10);
        assert_eq!(sim.cycle(), 5);
    }
}
