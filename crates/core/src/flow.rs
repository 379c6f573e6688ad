//! The one-call power-emulation flow.

use pe_fpga::device::DeviceModel;
use pe_fpga::emulate::{estimate_emulation_time, EmulationEstimate, EmulationTimeModel};
use pe_fpga::lut::{map_to_luts, LutNetlist};
use pe_fpga::partition::{partition, PartitionResult};
use pe_fpga::timing::{analyze_timing, TimingReport};
use pe_gate::expand::expand_design;
use pe_instrument::{instrument, InstrumentConfig, InstrumentedDesign, OverheadReport};
use pe_power::{CharacterizeConfig, ModelLibrary};
use pe_rtl::Design;
use pe_sim::{Simulator, Testbench};
use pe_tape::{Tape, TapeCertificate, TapeError};
use pe_trace::Registry;
use std::cell::RefCell;
use std::fmt;

/// Errors from the flow.
#[derive(Debug)]
pub enum FlowError {
    /// Characterization failed.
    Characterize(pe_power::CharacterizeError),
    /// Instrumentation failed.
    Instrument(pe_instrument::InstrumentError),
    /// The instrumented design failed the lint gate: the report carries
    /// every finding (and the proven accumulator bounds).
    Lint(pe_lint::LintReport),
    /// The instrumented design does not fit the platform.
    Capacity(pe_fpga::partition::PartitionError),
    /// The instrumented design could not be compiled to a tape.
    Tape(TapeError),
    /// Simulation of the enhanced design failed.
    Simulate(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Characterize(e) => write!(f, "characterization failed: {e}"),
            FlowError::Instrument(e) => write!(f, "instrumentation failed: {e}"),
            FlowError::Lint(report) => {
                write!(f, "lint gate failed:")?;
                for d in &report.diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            FlowError::Capacity(e) => write!(f, "platform capacity exceeded: {e}"),
            FlowError::Tape(e) => write!(f, "tape compilation failed: {e}"),
            FlowError::Simulate(msg) => write!(f, "emulation execution failed: {msg}"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Everything the flow learns about one design.
#[derive(Debug)]
pub struct FlowResult {
    /// The instrumented (enhanced) design plus readout metadata.
    pub instrumented: InstrumentedDesign,
    /// RTL-level instrumentation overhead.
    pub overhead: OverheadReport,
    /// The technology-mapped enhanced design.
    pub mapped: LutNetlist,
    /// Static timing of the mapped design.
    pub timing: TimingReport,
    /// Multi-device partitioning (1 device when it fits).
    pub partition: PartitionResult,
}

impl FlowResult {
    /// Models the emulation time for a run of `cycles` using the paper's
    /// methodology: the enhanced design runs at its timing-derived clock,
    /// with capacity effects out of scope (the paper reports Figure 3 this
    /// way and defers the area/capacity problem to future work).
    pub fn emulation_time(&self, model: &EmulationTimeModel, cycles: u64) -> EmulationEstimate {
        estimate_emulation_time(&self.mapped, &self.timing, model, cycles, 1)
    }
}

/// A design made ready to serve by [`PowerEmulationFlow::stage_prepare`].
#[derive(Debug)]
pub struct Prepared {
    /// The instrumented (enhanced) design plus readout metadata.
    pub instrumented: InstrumentedDesign,
    /// The lint report of `instrumented`, ungated: each caller applies
    /// its own denylist.
    pub report: pe_lint::LintReport,
    /// `instrumented` compiled, optimized, and translation-validated.
    pub tape: Tape,
    /// The certificate of `tape`; check `validated` before running it.
    pub certificate: TapeCertificate,
}

/// Power read back from an emulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulatedPower {
    /// Cycles executed.
    pub cycles: u64,
    /// Total energy read from the power accumulator(s), femtojoules.
    pub total_energy_fj: f64,
    /// Average power in microwatts (over the design's nominal clock).
    pub average_power_uw: f64,
}

/// The Figure-2 flow with its knobs.
#[derive(Debug)]
pub struct PowerEmulationFlow {
    library: RefCell<ModelLibrary>,
    characterize: CharacterizeConfig,
    instrument: InstrumentConfig,
    lint_deny: pe_lint::Denylist,
    lint_horizon: Option<u64>,
}

/// Devices the flow may partition onto: a 2005-class multi-FPGA
/// emulation box of XC2V6000s.
const MAX_DEVICES: u32 = 64;

impl Default for PowerEmulationFlow {
    fn default() -> Self {
        Self::new()
    }
}

impl PowerEmulationFlow {
    /// A flow with standard settings: per-bit models, 16-bit coefficients,
    /// a tree aggregator, and XC2V6000 devices (up to 64 of them).
    pub fn new() -> Self {
        Self {
            library: RefCell::new(ModelLibrary::new()),
            characterize: CharacterizeConfig::standard(),
            instrument: InstrumentConfig::default(),
            lint_deny: pe_lint::Denylist::None,
            lint_horizon: None,
        }
    }

    /// Replaces the internal library with a pre-characterized one, e.g.
    /// when a harness restores a library from an artifact cache.
    pub fn install_library(&self, library: ModelLibrary) {
        *self.library.borrow_mut() = library;
    }

    /// The characterization configuration this flow characterizes with.
    pub fn characterize_config(&self) -> &CharacterizeConfig {
        &self.characterize
    }

    /// The instrumentation configuration this flow enhances with.
    pub fn instrument_config(&self) -> &InstrumentConfig {
        &self.instrument
    }

    /// Overrides the characterization configuration.
    pub fn with_characterize(mut self, config: CharacterizeConfig) -> Self {
        self.characterize = config;
        self
    }

    /// Overrides the instrumentation configuration.
    pub fn with_instrument(mut self, config: InstrumentConfig) -> Self {
        self.instrument = config;
        self
    }

    /// Configures the lint gate run by
    /// [`PowerEmulationFlow::stage_instrument`]: `deny` promotes the
    /// listed rules (or all) to hard errors, and `horizon_cycles`, when
    /// set, requires every accumulator to be proven overflow-free for
    /// that many cycles. Intrinsic-error findings always gate.
    /// [`PowerEmulationFlow::stage_prepare`] lints at the same horizon
    /// but leaves `deny` to its caller.
    pub fn with_lint(mut self, deny: pe_lint::Denylist, horizon_cycles: Option<u64>) -> Self {
        self.lint_deny = deny;
        self.lint_horizon = horizon_cycles;
        self
    }

    /// A snapshot of the accumulated model library.
    pub fn library(&self) -> ModelLibrary {
        self.library.borrow().clone()
    }

    /// Ensures the internal library covers `design`, characterizing
    /// missing classes.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn prepare_models(&self, design: &Design) -> Result<(), FlowError> {
        self.library
            .borrow_mut()
            .characterize_design(design, &self.characterize)
            .map(|_| ())
            .map_err(FlowError::Characterize)
    }

    /// Stage 2a: enhances `design` with the power-estimation hardware
    /// using the models currently in the library (no characterization is
    /// attempted — run [`PowerEmulationFlow::prepare_models`] or
    /// [`PowerEmulationFlow::install_library`] first).
    ///
    /// The enhanced design must be lint-clean before anything downstream
    /// (mapping, timing, partitioning) sees it: the soundness rules run
    /// here and any effective error under the configured denylist aborts
    /// the stage.
    ///
    /// # Errors
    ///
    /// Propagates instrumentation failures, including missing models, and
    /// returns [`FlowError::Lint`] when the lint gate finds errors.
    pub fn stage_instrument(
        &self,
        design: &Design,
    ) -> Result<(InstrumentedDesign, OverheadReport), FlowError> {
        let instrumented = instrument(design, &self.library.borrow(), &self.instrument)
            .map_err(FlowError::Instrument)?;
        let report = pe_lint::lint_instrumented(&instrumented, self.lint_horizon);
        if !report.is_clean(&self.lint_deny) {
            return Err(FlowError::Lint(report));
        }
        let overhead = OverheadReport::measure(design, &instrumented);
        Ok((instrumented, overhead))
    }

    /// The served pipeline: instrument → lint → tape compile, optimize,
    /// and validate, with the installed library, instrument config, and
    /// lint horizon (characterization stays with the caller). Each layer
    /// is timed into `registry` (`prepare.instrument_us`,
    /// `prepare.lint_us`, `prepare.tape_us`). The lint report is not
    /// gated and a tape that fails validation is not an error: the
    /// caller decides what to refuse.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Instrument`] when instrumentation fails and
    /// [`FlowError::Tape`] when the instrumented design does not compile.
    pub fn stage_prepare(
        &self,
        design: &Design,
        registry: &Registry,
    ) -> Result<Prepared, FlowError> {
        let instrumented = registry
            .time_us("prepare.instrument_us", || {
                instrument(design, &self.library.borrow(), &self.instrument)
            })
            .map_err(FlowError::Instrument)?;
        let report = registry.time_us("prepare.lint_us", || {
            pe_lint::lint_instrumented(&instrumented, self.lint_horizon)
        });
        let (tape, certificate) = registry
            .time_us("prepare.tape_us", || {
                Tape::compile_optimized(&instrumented.design)
            })
            .map_err(FlowError::Tape)?;
        Ok(Prepared {
            instrumented,
            report,
            tape,
            certificate,
        })
    }

    /// Stage 2b: expands the enhanced design to gates and maps it onto
    /// 4-LUTs.
    pub fn stage_map(&self, instrumented: &InstrumentedDesign) -> LutNetlist {
        map_to_luts(&expand_design(&instrumented.design).netlist)
    }

    /// Stage 2c: static timing of the mapped design.
    pub fn stage_time(&self, mapped: &LutNetlist) -> TimingReport {
        analyze_timing(mapped)
    }

    /// Stage 2d: fits the mapped design onto XC2V6000 devices.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Capacity`] when the design exceeds the
    /// platform.
    pub fn stage_partition(&self, mapped: &LutNetlist) -> Result<PartitionResult, FlowError> {
        partition(mapped, &DeviceModel::xc2v6000(), MAX_DEVICES, 0.9).map_err(FlowError::Capacity)
    }

    /// Runs steps 1–2 of the flow: model inference, enhancement, FPGA
    /// mapping, timing, and partitioning — the serial composition of
    /// [`PowerEmulationFlow::prepare_models`] and the `stage_*` entry
    /// points (which `pe-harness` schedules individually).
    ///
    /// # Errors
    ///
    /// Returns the first failing stage.
    pub fn run(&self, design: &Design) -> Result<FlowResult, FlowError> {
        self.prepare_models(design)?;
        let (instrumented, overhead) = self.stage_instrument(design)?;
        let mapped = self.stage_map(&instrumented);
        let timing = self.stage_time(&mapped);
        let partition = self.stage_partition(&mapped)?;
        Ok(FlowResult {
            instrumented,
            overhead,
            mapped,
            timing,
            partition,
        })
    }

    /// Step 3: executes the testbench against the enhanced design and
    /// reads the power accumulator back — functionally equivalent to
    /// running on the platform (the wall-clock of *this* simulation is
    /// irrelevant; emulation time is modeled by
    /// [`FlowResult::emulation_time`]).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Simulate`] if the enhanced design cannot be
    /// simulated.
    pub fn emulate_power(
        &self,
        result: &FlowResult,
        testbench: &mut dyn Testbench,
    ) -> Result<EmulatedPower, FlowError> {
        let design = &result.instrumented.design;
        let mut sim = Simulator::new(design).map_err(|e| FlowError::Simulate(e.to_string()))?;
        let cycles = pe_sim::run(&mut sim, testbench);
        let total_energy_fj = result
            .instrumented
            .try_read_energy_fj(&mut sim)
            .map_err(|e| FlowError::Simulate(e.to_string()))?;
        let period_ns = design.clocks().first().map_or(10.0, |c| c.period_ns());
        Ok(EmulatedPower {
            cycles,
            total_energy_fj,
            average_power_uw: if cycles == 0 {
                0.0
            } else {
                total_energy_fj / (cycles as f64 * period_ns)
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_rtl::builder::DesignBuilder;
    use pe_sim::ConstInputs;

    fn small_design() -> Design {
        let mut b = DesignBuilder::new("flow_test");
        let clk = b.clock("clk");
        let one = b.constant(1, 8);
        let cnt = b.register_named("cnt", 8, 0, clk);
        let nxt = b.add(cnt.q(), one);
        b.connect_d(cnt, nxt);
        let sq = b.mul(cnt.q(), cnt.q(), 12);
        let q = b.pipeline_reg("sq", sq, 0, clk);
        b.output("sq", q);
        b.finish().unwrap()
    }

    #[test]
    fn flow_runs_end_to_end() {
        let d = small_design();
        let flow = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
        let result = flow.run(&d).unwrap();
        assert!(result.overhead.component_ratio() > 1.0);
        assert!(result.timing.fmax_mhz > 1.0);
        assert_eq!(result.partition.devices, 1);
        let mapped_use = result.mapped.resource_use();
        assert!(mapped_use.luts > 0);
        // Modeled emulation time scales with cycles.
        let model = EmulationTimeModel::default();
        let t1 = result.emulation_time(&model, 1_000_000);
        let t2 = result.emulation_time(&model, 3_000_000);
        assert!(t2.total > t1.total);
        // Power readout.
        let mut tb = ConstInputs::new(300, vec![]);
        let power = flow.emulate_power(&result, &mut tb).unwrap();
        assert_eq!(power.cycles, 300);
        assert!(power.total_energy_fj > 0.0);
        assert!(power.average_power_uw > 0.0);
    }

    #[test]
    fn staged_entry_points_match_run() {
        let d = small_design();
        let flow = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
        let full = flow.run(&d).unwrap();

        // A second flow that never characterizes: the library is restored
        // via install_library, then each stage runs individually.
        let staged = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
        staged.install_library(flow.library());
        let (inst, overhead) = staged.stage_instrument(&d).unwrap();
        let mapped = staged.stage_map(&inst);
        let timing = staged.stage_time(&mapped);
        let part = staged.stage_partition(&mapped).unwrap();

        assert_eq!(
            full.overhead.enhanced.components,
            overhead.enhanced.components
        );
        assert_eq!(full.mapped.resource_use().luts, mapped.resource_use().luts);
        assert_eq!(full.timing.fmax_mhz.to_bits(), timing.fmax_mhz.to_bits());
        assert_eq!(full.partition.devices, part.devices);
    }

    #[test]
    fn stage_prepare_builds_a_validated_tape_and_times_each_layer() {
        let d = small_design();
        let flow = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
        flow.prepare_models(&d).unwrap();
        let registry = Registry::new();
        let prepared = flow.stage_prepare(&d, &registry).unwrap();
        let (staged, _) = flow.stage_instrument(&d).unwrap();
        assert_eq!(
            prepared.instrumented.design.components().len(),
            staged.design.components().len()
        );
        assert!(prepared.report.is_clean(&pe_lint::Denylist::All));
        assert!(
            prepared.certificate.validated,
            "{:?}",
            prepared.certificate.reason
        );
        // The tape was compiled from the instrumented netlist.
        let mut netlist = pe_util::hash::Fnv128::new();
        netlist.update(pe_rtl::text::to_text(&staged.design).as_bytes());
        assert_eq!(prepared.certificate.netlist_fnv128, netlist.hex());
        for layer in [
            "prepare.instrument_us",
            "prepare.lint_us",
            "prepare.tape_us",
        ] {
            assert_eq!(registry.histogram(layer).count(), 1, "{layer}");
        }
    }

    #[test]
    fn stage_instrument_without_models_fails_cleanly() {
        let d = small_design();
        let flow = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
        // No prepare_models: instrumentation must report missing models,
        // not characterize behind the caller's back.
        assert!(matches!(
            flow.stage_instrument(&d),
            Err(FlowError::Instrument(_))
        ));
    }

    #[test]
    fn lint_gate_passes_clean_designs_and_blocks_tight_accumulators() {
        let d = small_design();
        // A deny-all gate with a generous horizon: the default transform
        // output is lint-clean, so the stage must succeed.
        let flow = PowerEmulationFlow::new()
            .with_characterize(CharacterizeConfig::fast())
            .with_lint(pe_lint::Denylist::All, Some(1_000_000));
        flow.prepare_models(&d).unwrap();
        assert!(flow.stage_instrument(&d).is_ok());

        // The tightest legal accumulator cannot be proven safe for an
        // astronomically long run: the gate must reject it with the
        // overflow rule.
        let tight = PowerEmulationFlow::new()
            .with_characterize(CharacterizeConfig::fast())
            .with_instrument(InstrumentConfig {
                accumulator_bits: 24,
                ..InstrumentConfig::default()
            })
            .with_lint(pe_lint::Denylist::All, Some(u64::MAX / 2));
        tight.prepare_models(&d).unwrap();
        match tight.stage_instrument(&d) {
            Err(FlowError::Lint(report)) => {
                assert!(report.by_rule(pe_lint::Rule::AccOverflow).count() >= 1);
                assert!(!report.bounds.is_empty());
            }
            other => panic!("expected lint gate failure, got {other:?}"),
        }
        // stage_prepare returns the same report ungated; its caller decides.
        let prepared = tight.stage_prepare(&d, &Registry::new()).unwrap();
        assert!(!prepared.report.is_clean(&pe_lint::Denylist::All));
    }

    #[test]
    fn library_accumulates_across_runs() {
        let d = small_design();
        let flow = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
        flow.prepare_models(&d).unwrap();
        let n = flow.library().len();
        assert!(n >= 3); // add, mul, registers
                         // Re-running characterizes nothing new.
        flow.prepare_models(&d).unwrap();
        assert_eq!(flow.library().len(), n);
    }
}
