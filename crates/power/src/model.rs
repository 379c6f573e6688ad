//! The macromodel data types.

use pe_rtl::{Component, ComponentKind, Design};
use pe_util::bits;
use std::fmt;

/// Identifies a component *class* for model lookup: the kind (including
/// static parameters such as table contents), the I/O widths, and the
/// **input-duplication signature** — which input positions are tied to
/// the same signal. Two 8-bit adders share a model; an 8-bit and a
/// 16-bit adder do not; neither do an 8-way mux with distinct data legs
/// and one whose hold path is wired to five of them (the duplicated legs
/// fold away at the gate level, so the implementations — and the energy
/// per observed transition — genuinely differ).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// The component kind with its parameters.
    pub kind: ComponentKind,
    /// Input widths, in input order.
    pub in_widths: Vec<u32>,
    /// Output width.
    pub out_width: u32,
    /// Group index per input position, numbered by first occurrence:
    /// `[0, 1, 1, 2]` means positions 1 and 2 share one signal. The
    /// identity signature is `[0, 1, 2, …]`.
    pub dup_groups: Vec<u8>,
}

impl ModelKey {
    /// The key of a component instance in a design.
    pub fn of(design: &Design, component: &Component) -> Self {
        let inputs = component.inputs();
        let mut seen: Vec<pe_rtl::SignalId> = Vec::new();
        let dup_groups = inputs
            .iter()
            .map(|s| match seen.iter().position(|x| x == s) {
                Some(g) => g as u8,
                None => {
                    seen.push(*s);
                    (seen.len() - 1) as u8
                }
            })
            .collect();
        Self {
            kind: component.kind().clone(),
            in_widths: inputs.iter().map(|s| design.signal(*s).width()).collect(),
            out_width: design.signal(component.output()).width(),
            dup_groups,
        }
    }

    /// A key with the identity duplication signature (all inputs
    /// distinct) — the common case for hand-built keys.
    pub fn distinct(kind: ComponentKind, in_widths: Vec<u32>, out_width: u32) -> Self {
        let dup_groups = (0..in_widths.len() as u8).collect();
        Self {
            kind,
            in_widths,
            out_width,
            dup_groups,
        }
    }

    /// Number of distinct input signals (groups).
    pub fn group_count(&self) -> usize {
        self.dup_groups
            .iter()
            .copied()
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0)
    }

    /// Width of distinct input group `g` (the width of its first
    /// position).
    pub fn group_width(&self, g: usize) -> u32 {
        let pos = self
            .dup_groups
            .iter()
            .position(|&x| x as usize == g)
            .expect("group exists");
        self.in_widths[pos]
    }

    /// Whether the signature is the identity (no duplicated inputs).
    pub fn is_distinct(&self) -> bool {
        self.dup_groups
            .iter()
            .enumerate()
            .all(|(i, &g)| g as usize == i)
    }
}

impl fmt::Display for ModelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}→{})",
            self.kind.mnemonic(),
            self.in_widths
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.out_width
        )?;
        if !self.is_distinct() {
            write!(
                f,
                "[{}]",
                self.dup_groups
                    .iter()
                    .map(|g| g.to_string())
                    .collect::<Vec<_>>()
                    .join("")
            )?;
        }
        Ok(())
    }
}

/// Layout of a component's monitored bits: each *distinct* input signal
/// in first-occurrence order, then the output. Duplicated input positions
/// share one monitored entry (one snapshot queue in hardware — the paper's
/// queues hold signal values, so a signal tied to several ports is stored
/// once). Coefficient index `k` of a per-bit model refers to the `k`-th
/// monitored bit in this layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitoredLayout {
    widths: Vec<u32>,
    offsets: Vec<u32>,
    total: u32,
}

impl MonitoredLayout {
    /// Builds the layout for a component class.
    pub fn of(key: &ModelKey) -> Self {
        let mut widths: Vec<u32> = (0..key.group_count()).map(|g| key.group_width(g)).collect();
        widths.push(key.out_width);
        let mut offsets = Vec::with_capacity(widths.len());
        let mut total = 0;
        for w in &widths {
            offsets.push(total);
            total += *w;
        }
        Self {
            widths,
            offsets,
            total,
        }
    }

    /// Number of monitored signals (inputs + 1).
    pub fn signal_count(&self) -> usize {
        self.widths.len()
    }

    /// Width of monitored signal `i`.
    pub fn width(&self, i: usize) -> u32 {
        self.widths[i]
    }

    /// Bit offset of monitored signal `i` in the flat coefficient vector.
    pub fn offset(&self, i: usize) -> u32 {
        self.offsets[i]
    }

    /// Total monitored bits — the `n` of the paper's model equation.
    pub fn total_bits(&self) -> u32 {
        self.total
    }
}

/// A characterized power macromodel for one component class.
///
/// Energies are in femtojoules per cycle; `base_fj` captures
/// activity-independent energy (clock pins, leakage share) and the
/// coefficients the activity-dependent part.
#[derive(Debug, Clone, PartialEq)]
pub struct Macromodel {
    base_fj: f64,
    coeffs: Vec<f64>,
    layout: MonitoredLayout,
}

impl Macromodel {
    /// Assembles a model.
    ///
    /// # Panics
    ///
    /// Panics unless there is one coefficient per monitored bit
    /// (`layout.total_bits()` of them).
    pub fn new(base_fj: f64, coeffs: Vec<f64>, layout: MonitoredLayout) -> Self {
        let expected = layout.total_bits() as usize;
        assert_eq!(
            coeffs.len(),
            expected,
            "per-bit model expects {expected} coefficients, got {}",
            coeffs.len()
        );
        Self {
            base_fj,
            coeffs,
            layout,
        }
    }

    /// Baseline per-cycle energy (femtojoules).
    pub fn base_fj(&self) -> f64 {
        self.base_fj
    }

    /// The coefficient vector: entry `k` weighs a transition of monitored
    /// bit `k` of the [layout](Macromodel::layout).
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// The monitored-bit layout.
    pub fn layout(&self) -> &MonitoredLayout {
        &self.layout
    }

    /// Evaluates the model for one cycle, given the previous and current
    /// values of each monitored signal (inputs in order, then the output).
    ///
    /// This is the *software* evaluation used by the estimator baselines;
    /// the instrumentation crate compiles the same arithmetic into
    /// hardware.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the slices do not match the layout.
    pub fn eval_fj(&self, prev: &[u64], curr: &[u64]) -> f64 {
        debug_assert_eq!(prev.len(), self.layout.signal_count());
        debug_assert_eq!(curr.len(), self.layout.signal_count());
        let mut energy = self.base_fj;
        for i in 0..prev.len() {
            let mut trans = bits::transition_bits(prev[i], curr[i], self.layout.width(i));
            let offset = self.layout.offset(i) as usize;
            while trans != 0 {
                let b = trans.trailing_zeros() as usize;
                energy += self.coeffs[offset + b];
                trans &= trans - 1;
            }
        }
        energy
    }

    /// Sum of all coefficients — the model's maximum activity-dependent
    /// energy per cycle; used for fixed-point range planning during
    /// instrumentation.
    pub fn coeff_sum(&self) -> f64 {
        self.coeffs.iter().sum()
    }

    /// Largest single coefficient (for quantization format planning).
    pub fn coeff_max(&self) -> f64 {
        self.coeffs.iter().copied().fold(0.0, f64::max)
    }

    /// The coefficient for monitored bit `k` — what the hardware
    /// generator instantiates.
    pub fn bit_coeff(&self, k: u32) -> f64 {
        self.coeffs[k as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_add4() -> ModelKey {
        ModelKey::distinct(ComponentKind::Add, vec![4, 4], 4)
    }

    #[test]
    fn layout_offsets_and_totals() {
        let layout = MonitoredLayout::of(&key_add4());
        assert_eq!(layout.signal_count(), 3);
        assert_eq!(layout.total_bits(), 12);
        assert_eq!(layout.offset(0), 0);
        assert_eq!(layout.offset(1), 4);
        assert_eq!(layout.offset(2), 8);
        assert_eq!(layout.width(2), 4);
    }

    #[test]
    fn per_bit_eval_sums_transitioned_coefficients() {
        let layout = MonitoredLayout::of(&key_add4());
        let coeffs: Vec<f64> = (0..12).map(|i| i as f64 + 1.0).collect();
        let m = Macromodel::new(10.0, coeffs, layout);
        // a: bits 0 and 3 toggle → coeffs 1 and 4; b: none; out: bit 1 →
        // coeff offset 8+1 = index 9 → value 10.
        let prev = [0b0000, 0b1111, 0b0000];
        let curr = [0b1001, 0b1111, 0b0010];
        assert_eq!(m.eval_fj(&prev, &curr), 10.0 + 1.0 + 4.0 + 10.0);
    }

    #[test]
    fn coeff_sum_and_bit_coeff_read_the_vector() {
        let layout = MonitoredLayout::of(&key_add4());
        let coeffs: Vec<f64> = (0..12).map(|i| i as f64 * 0.5).collect();
        let m = Macromodel::new(0.0, coeffs, layout);
        assert_eq!(m.coeff_sum(), 33.0);
        assert_eq!(m.bit_coeff(0), 0.0);
        assert_eq!(m.bit_coeff(11), 5.5);
    }

    #[test]
    #[should_panic(expected = "expects 12 coefficients")]
    fn wrong_coeff_count_panics() {
        let layout = MonitoredLayout::of(&key_add4());
        Macromodel::new(0.0, vec![1.0; 3], layout);
    }

    #[test]
    fn key_display_and_equality() {
        let k = key_add4();
        assert_eq!(k.to_string(), "add(4,4→4)");
        let k2 = ModelKey::distinct(ComponentKind::Add, vec![4, 4], 5);
        assert_ne!(k, k2);
    }

    #[test]
    fn duplicated_inputs_share_a_monitored_entry() {
        let key = ModelKey {
            kind: ComponentKind::Mux,
            in_widths: vec![1, 8, 8, 8],
            out_width: 8,
            dup_groups: vec![0, 1, 2, 1], // data legs 0 and 2 share a signal
        };
        assert!(!key.is_distinct());
        assert_eq!(key.group_count(), 3);
        assert_eq!(key.group_width(1), 8);
        let layout = MonitoredLayout::of(&key);
        // sel + 2 distinct data signals + output.
        assert_eq!(layout.signal_count(), 4);
        assert_eq!(layout.total_bits(), 1 + 8 + 8 + 8);
        assert!(key.to_string().contains("[0121]"));
    }
}
