//! The characterization engine: fits macromodels against gate-level
//! reference energy.
//!
//! For each component class, an isolated instance is built as a one-
//! component RTL design, expanded to gates, and simulated in lockstep at
//! the RT and gate levels under randomized stimuli. Each cycle yields one
//! regression row — the transition indicator of every monitored bit — and
//! a measured energy. Coefficients are fit by ridge-regularized least
//! squares; negative coefficients (physically meaningless for hardware
//! gating) are clamped to zero and the intercept re-estimated.
//!
//! Stimulus mix: uniform random values, random-walk (data-correlated)
//! values, and hold cycles, so the regression sees a range of activity
//! levels rather than only the 50 %-toggle regime.

use crate::model::{Macromodel, ModelKey, MonitoredLayout};
use pe_gate::cells::CellLibrary;
use pe_gate::expand::expand_design;
use pe_gate::GateSimulator;
use pe_rtl::{ComponentKind, Design, DesignError, SignalId};
use pe_sim::Simulator;
use pe_util::linalg::{least_squares, Matrix};
use pe_util::rng::Xoshiro;
use pe_util::{bits, stats};
use std::fmt;

/// Configuration of a characterization run.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeConfig {
    /// Training cycles (regression rows).
    pub train_cycles: usize,
    /// Held-out validation cycles for the accuracy report.
    pub validate_cycles: usize,
    /// RNG seed (characterization is fully deterministic).
    pub seed: u64,
    /// Ridge regularization weight.
    pub lambda: f64,
}

impl CharacterizeConfig {
    /// The default configuration used by the benchmark flow.
    pub fn standard() -> Self {
        Self {
            train_cycles: 1500,
            validate_cycles: 300,
            seed: 0xC0FFEE,
            lambda: 1e-6,
        }
    }

    /// A fast configuration for tests and doc examples.
    pub fn fast() -> Self {
        Self {
            train_cycles: 400,
            validate_cycles: 100,
            ..Self::standard()
        }
    }

    /// A stable, injective textual encoding of every field that affects
    /// characterization output. Artifact caches hash this token together
    /// with the netlist text to form a content address, so two configs
    /// produce the same token iff they produce the same models. `lambda`
    /// is encoded by its IEEE-754 bit pattern — decimal formatting is
    /// not round-trip-exact. The literal `form=perbit` stays in the token so
    /// existing cache addresses do not move.
    pub fn cache_token(&self) -> String {
        format!(
            "train={} validate={} form=perbit seed={:#018x} lambda_bits={:016x}",
            self.train_cycles,
            self.validate_cycles,
            self.seed,
            self.lambda.to_bits(),
        )
    }
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Error raised by [`characterize`].
#[derive(Debug, Clone, PartialEq)]
pub enum CharacterizeError {
    /// The isolated design could not be constructed (internal bug or an
    /// unsupported key).
    Construction(DesignError),
    /// The regression failed (degenerate stimulus).
    Fit(String),
    /// The lockstep RT/gate simulation of the isolated design failed
    /// (e.g. a stimulus port the gate netlist does not expose).
    Simulation(String),
}

impl fmt::Display for CharacterizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharacterizeError::Construction(e) => write!(f, "cannot isolate component: {e}"),
            CharacterizeError::Fit(msg) => write!(f, "regression failed: {msg}"),
            CharacterizeError::Simulation(msg) => write!(f, "lockstep simulation failed: {msg}"),
        }
    }
}

impl std::error::Error for CharacterizeError {}

impl From<DesignError> for CharacterizeError {
    fn from(e: DesignError) -> Self {
        CharacterizeError::Construction(e)
    }
}

/// Accuracy summary of a characterized model, measured on held-out
/// stimuli against the gate-level reference.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationReport {
    /// The characterized class.
    pub key: ModelKey,
    /// Coefficient of determination on validation cycles.
    pub r_squared: f64,
    /// Mean absolute percentage error of per-cycle energy.
    pub mape_percent: f64,
    /// Average per-cycle reference energy (femtojoules).
    pub mean_energy_fj: f64,
    /// Training rows used.
    pub train_cycles: usize,
    /// Validation rows used.
    pub validate_cycles: usize,
}

/// Builds a one-component design exposing the component's *distinct*
/// input signals as ports, fanned out to duplicated positions exactly as
/// the class's duplication signature specifies — so the gate-level
/// implementation (with its folded duplicate legs) matches the instances
/// this model will cover.
pub(crate) fn isolated_design(key: &ModelKey) -> Result<Design, DesignError> {
    let mut d = Design::new(format!("char_{}", key.kind.mnemonic()));
    let clock = if key.kind.is_sequential() {
        Some(d.add_clock("clk")?)
    } else {
        None
    };
    let group_ports: Vec<SignalId> = (0..key.group_count())
        .map(|g| d.add_input(format!("in{g}"), key.group_width(g)))
        .collect::<Result<_, _>>()?;
    let ins: Vec<SignalId> = key
        .dup_groups
        .iter()
        .map(|&g| group_ports[g as usize])
        .collect();
    let out = d.add_signal("out", key.out_width)?;
    d.add_component("dut", key.kind.clone(), &ins, out, clock)?;
    d.add_output("out", out)?;
    Ok(d)
}

/// Per-input stimulus generator with a mixed policy.
///
/// Besides per-input variety (uniform, random-walk, hold, single-bit
/// flips), the generator injects *global idle bursts* — stretches where
/// every input holds — so the regression can anchor the intercept to the
/// truly activity-independent energy (clock, leakage). Without idle rows
/// the intercept absorbs part of the average switching energy and the
/// fitted model systematically overestimates mostly-idle workloads.
struct Stimulus {
    rng: Xoshiro,
    widths: Vec<u32>,
    current: Vec<u64>,
    /// Control-flavoured inputs (mux selects, shift amounts, memory
    /// addresses, table indices): driven with sequential walks and
    /// occasional jumps, the way controllers drive them, instead of the
    /// uniform noise appropriate for datapath operands. Characterizing
    /// selects with uniform noise makes the regression blend selected and
    /// unselected data-input energy and overestimate FSM-style workloads
    /// severely (the classic mux nonlinearity).
    control: Vec<bool>,
    idle_left: u32,
}

impl Stimulus {
    fn new(key: &ModelKey, seed: u64) -> Self {
        // One stimulus stream per *distinct* input signal.
        let widths: Vec<u32> = (0..key.group_count()).map(|g| key.group_width(g)).collect();
        let mut control = vec![false; widths.len()];
        let group_at = |pos: usize| key.dup_groups.get(pos).map(|&g| g as usize);
        match &key.kind {
            ComponentKind::Mux | ComponentKind::Table { .. } => {
                if let Some(g) = group_at(0) {
                    control[g] = true;
                }
            }
            ComponentKind::Shl | ComponentKind::Shr | ComponentKind::Sar => {
                if let Some(g) = group_at(1) {
                    control[g] = true;
                }
            }
            ComponentKind::Memory { .. } => {
                // raddr, waddr are control; wen toggles sparsely anyway.
                for pos in 0..2 {
                    if let Some(g) = group_at(pos) {
                        control[g] = true;
                    }
                }
            }
            _ => {}
        }
        let current = vec![0; widths.len()];
        Self {
            rng: Xoshiro::new(seed),
            widths,
            current,
            control,
            idle_left: 0,
        }
    }

    fn next_vector(&mut self) -> &[u64] {
        if self.idle_left > 0 {
            self.idle_left -= 1;
            return &self.current; // global hold
        }
        if self.rng.chance(0.12) {
            self.idle_left = self.rng.range(1, 8) as u32;
            return &self.current;
        }
        for i in 0..self.widths.len() {
            let w = self.widths[i];
            self.current[i] = if self.control[i] {
                // Controller-style: mostly sequential stepping with
                // occasional random jumps and holds.
                match self.rng.below(10) {
                    0..=5 => bits::truncate(self.current[i].wrapping_add(1), w),
                    6..=7 => self.current[i],
                    _ => self.rng.bits(w),
                }
            } else {
                match self.rng.below(10) {
                    // 40 %: fresh uniform value
                    0..=3 => self.rng.bits(w),
                    // 30 %: random walk (correlated data)
                    4..=6 => {
                        let delta = self.rng.range_i64(-3, 3);
                        bits::to_unsigned((self.current[i] as i64).wrapping_add(delta), w)
                    }
                    // 20 %: hold
                    7..=8 => self.current[i],
                    // 10 %: single-bit flip
                    _ => self.current[i] ^ (1u64 << self.rng.below(w as u64)),
                }
            };
        }
        &self.current
    }
}

struct Trace {
    rows: Vec<Vec<f64>>,
    energies: Vec<f64>,
}

/// Runs the lockstep RT/gate simulation and collects regression data.
///
/// # Errors
///
/// [`CharacterizeError`] if the isolated design cannot be simulated —
/// propagated instead of panicking so a bad design takes down one
/// characterization request, not the process hosting it.
fn collect_trace(
    design: &Design,
    key: &ModelKey,
    layout: &MonitoredLayout,
    cycles: usize,
    seed: u64,
    lib: &CellLibrary,
) -> Result<Trace, CharacterizeError> {
    let expanded = expand_design(design);
    let mut gsim = GateSimulator::new(&expanded, lib);
    let mut rsim = Simulator::new(design)?;
    let dut = design.find_component("dut").ok_or_else(|| {
        CharacterizeError::Simulation("isolated design has no `dut` component".to_string())
    })?;
    let comp = design.component(dut);
    let monitored: Vec<SignalId> = {
        let mut m: Vec<SignalId> = Vec::new();
        for s in comp.inputs() {
            if !m.contains(s) {
                m.push(*s);
            }
        }
        m.push(comp.output());
        m
    };
    let in_ports: Vec<String> = design
        .inputs()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let mut stim = Stimulus::new(key, seed);

    let n_cols = layout.total_bits() as usize;

    let mut rows = Vec::with_capacity(cycles);
    let mut energies = Vec::with_capacity(cycles);
    let mut prev_vals: Vec<u64> = Vec::new();
    let mut pending_seq = 0.0f64;

    for t in 0..=cycles {
        let vector = stim.next_vector().to_vec();
        for (name, v) in in_ports.iter().zip(&vector) {
            gsim.try_set_input(name, *v)
                .map_err(|e| CharacterizeError::Simulation(e.to_string()))?;
            rsim.set_input_by_name(name, *v);
        }
        let cur_vals: Vec<u64> = monitored.iter().map(|s| rsim.value(*s)).collect();
        gsim.step();
        let (comb, seq, leak) = gsim.last_cycle_split_fj();
        rsim.step();

        if t > 0 {
            // Row t: transitions between the previous and current settled
            // pre-edge states; energy: this settle's combinational energy,
            // the *previous* edge's sequential energy (whose q transition
            // is visible in this row), and the leakage share.
            let mut row = vec![0.0; n_cols + 1];
            row[n_cols] = 1.0; // intercept
            for (i, (&p, &c)) in prev_vals.iter().zip(&cur_vals).enumerate() {
                let mut trans = bits::transition_bits(p, c, layout.width(i));
                let off = layout.offset(i) as usize;
                while trans != 0 {
                    let b = trans.trailing_zeros() as usize;
                    row[off + b] = 1.0;
                    trans &= trans - 1;
                }
            }
            rows.push(row);
            energies.push(comb + pending_seq + leak);
        }
        pending_seq = seq;
        prev_vals = cur_vals;
    }
    Ok(Trace { rows, energies })
}

/// Characterizes one component class against the gate-level reference.
///
/// # Errors
///
/// Returns [`CharacterizeError`] if the isolated design cannot be built or
/// the regression is degenerate.
pub fn characterize(
    key: &ModelKey,
    lib: &CellLibrary,
    config: &CharacterizeConfig,
) -> Result<(Macromodel, CharacterizationReport), CharacterizeError> {
    let design = isolated_design(key)?;
    let layout = MonitoredLayout::of(key);
    let train = collect_trace(&design, key, &layout, config.train_cycles, config.seed, lib)?;

    let n_cols = layout.total_bits() as usize;
    let a = Matrix::from_rows(
        train.rows.len(),
        n_cols + 1,
        train.rows.iter().flatten().copied().collect(),
    );
    let x = least_squares(&a, &train.energies, config.lambda)
        .map_err(|e| CharacterizeError::Fit(e.to_string()))?;
    let (mut coeffs, mut base) = (x[..n_cols].to_vec(), x[n_cols]);

    // Clamp physically meaningless negative coefficients; re-center the
    // intercept with the mean residual so totals stay unbiased.
    let clamped: Vec<f64> = coeffs.iter().map(|c| c.max(0.0)).collect();
    if clamped != coeffs {
        coeffs = clamped;
        let mut residual = 0.0;
        for (row, &e) in train.rows.iter().zip(&train.energies) {
            let pred: f64 = row[..n_cols]
                .iter()
                .zip(&coeffs)
                .map(|(r, c)| r * c)
                .sum::<f64>()
                + base;
            residual += e - pred;
        }
        base += residual / train.rows.len() as f64;
    }
    base = base.max(0.0);

    let model = Macromodel::new(base, coeffs, layout.clone());

    // Validation on held-out stimuli.
    let validate = collect_trace(
        &design,
        key,
        &layout,
        config.validate_cycles,
        config.seed ^ 0x5EED_5EED,
        lib,
    )?;
    let predicted: Vec<f64> = validate
        .rows
        .iter()
        .map(|row| {
            row[..n_cols]
                .iter()
                .zip(model.coeffs())
                .map(|(r, c)| r * c)
                .sum::<f64>()
                + model.base_fj()
        })
        .collect();
    let report = CharacterizationReport {
        key: key.clone(),
        r_squared: stats::r_squared(&predicted, &validate.energies),
        mape_percent: stats::mape(&predicted, &validate.energies),
        mean_energy_fj: stats::mean(&validate.energies),
        train_cycles: config.train_cycles,
        validate_cycles: config.validate_cycles,
    };
    Ok((model, report))
}

/// Whether a component kind carries a power model: constants never
/// switch, and pure wiring (slice/concat/extend) has no gates — their
/// models are implicitly zero and they are skipped by characterization,
/// estimation, and instrumentation alike.
pub fn is_modelled_kind(kind: &ComponentKind) -> bool {
    !matches!(
        kind,
        ComponentKind::Const { .. }
            | ComponentKind::Slice { .. }
            | ComponentKind::Concat
            | ComponentKind::ZeroExt
            | ComponentKind::SignExt
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> CellLibrary {
        CellLibrary::cmos130()
    }

    fn key(kind: ComponentKind, in_widths: &[u32], out: u32) -> ModelKey {
        ModelKey::distinct(kind, in_widths.to_vec(), out)
    }

    #[test]
    fn adder_model_fits_well() {
        // Cycle-accurate linear transition models explain most but not all
        // of a ripple adder's variance (carry-chain activity is nonlinear
        // in the bit transitions) — R² in the 0.7–0.9 band is the expected
        // regime for this model family.
        let k = key(ComponentKind::Add, &[8, 8], 8);
        let (model, report) = characterize(&k, &lib(), &CharacterizeConfig::fast()).unwrap();
        assert!(report.r_squared > 0.7, "R² = {}", report.r_squared);
        assert!(model.coeff_sum() > 0.0);
        // Coefficients are non-negative by construction.
        assert!(model.coeffs().iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn adder_total_energy_is_unbiased() {
        // What the flow ultimately reports is *aggregate* energy; the
        // regression intercept keeps totals honest even when per-cycle
        // errors exist.
        let k = key(ComponentKind::Add, &[8, 8], 8);
        let cells = lib();
        let cfg = CharacterizeConfig::fast();
        let (model, _) = characterize(&k, &cells, &cfg).unwrap();
        let design = isolated_design(&k).unwrap();
        let layout = MonitoredLayout::of(&k);
        let trace = collect_trace(&design, &k, &layout, 500, 0xDEAD_BEEF, &cells).unwrap();
        let reference: f64 = trace.energies.iter().sum();
        let n_cols = layout.total_bits() as usize;
        let predicted: f64 = trace
            .rows
            .iter()
            .map(|row| {
                row[..n_cols]
                    .iter()
                    .zip(model.coeffs())
                    .map(|(r, c)| r * c)
                    .sum::<f64>()
                    + model.base_fj()
            })
            .sum();
        let rel = (predicted - reference).abs() / reference;
        assert!(rel < 0.05, "total-energy error {:.2}%", rel * 100.0);
    }

    #[test]
    fn register_model_captures_clock_base() {
        let k = key(
            ComponentKind::Register {
                init: Some(0),
                has_enable: false,
            },
            &[8],
            8,
        );
        let (model, report) = characterize(&k, &lib(), &CharacterizeConfig::fast()).unwrap();
        // 8 DFFs draw clock energy every cycle regardless of data.
        let clock_floor = 8.0 * lib().dff_clock_energy_fj();
        assert!(
            model.base_fj() > clock_floor * 0.5,
            "base {} too small vs clock floor {clock_floor}",
            model.base_fj()
        );
        assert!(report.r_squared > 0.8, "R² = {}", report.r_squared);
    }

    #[test]
    fn characterization_is_deterministic() {
        let k = key(ComponentKind::Sub, &[6, 6], 6);
        let (m1, r1) = characterize(&k, &lib(), &CharacterizeConfig::fast()).unwrap();
        let (m2, r2) = characterize(&k, &lib(), &CharacterizeConfig::fast()).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn isolated_design_shapes() {
        let k = key(
            ComponentKind::Memory {
                words: 16,
                init: None,
            },
            &[4, 4, 8, 1],
            8,
        );
        let d = isolated_design(&k).unwrap();
        assert_eq!(d.inputs().len(), 4);
        assert_eq!(d.outputs().len(), 1);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn modelled_predicate() {
        assert!(is_modelled_kind(&ComponentKind::Add));
        assert!(!is_modelled_kind(&ComponentKind::Const { value: 0 }));
        assert!(!is_modelled_kind(&ComponentKind::Concat));
        assert!(is_modelled_kind(&ComponentKind::Table {
            table: vec![0, 1]
        }));
    }

    #[test]
    fn cache_token_separates_configs() {
        let standard = CharacterizeConfig::standard();
        assert_eq!(
            standard.cache_token(),
            CharacterizeConfig::standard().cache_token()
        );
        assert_ne!(
            standard.cache_token(),
            CharacterizeConfig::fast().cache_token()
        );
        let mut reseeded = CharacterizeConfig::standard();
        reseeded.seed ^= 1;
        assert_ne!(standard.cache_token(), reseeded.cache_token());
        let mut regularized = CharacterizeConfig::standard();
        regularized.lambda *= 2.0;
        assert_ne!(standard.cache_token(), regularized.cache_token());
    }

    #[test]
    fn cache_tokens_keep_their_bytes() {
        // On-disk cache addresses hash these strings; they must not move.
        assert_eq!(
            CharacterizeConfig::fast().cache_token(),
            "train=400 validate=100 form=perbit seed=0x0000000000c0ffee \
             lambda_bits=3eb0c6f7a0b5ed8d"
        );
        assert_eq!(
            CharacterizeConfig::standard().cache_token(),
            "train=1500 validate=300 form=perbit seed=0x0000000000c0ffee \
             lambda_bits=3eb0c6f7a0b5ed8d"
        );
    }
}
