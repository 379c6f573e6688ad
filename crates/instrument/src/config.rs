//! Instrumentation configuration.

use std::fmt;

/// Topology of the power aggregator that sums the per-component model
/// outputs into the accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggregatorTopology {
    /// A linear chain of adders — the paper's "sequence of additions".
    /// Smallest description, longest critical path.
    Chain,
    /// A balanced adder tree: logarithmic depth.
    #[default]
    Tree,
    /// A balanced tree with a pipeline register after every level: the
    /// critical path through the aggregator is a single adder, at the cost
    /// of one register stage per level and a small boundary error at the
    /// end of a run (samples still in flight).
    PipelinedTree,
}

impl fmt::Display for AggregatorTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggregatorTopology::Chain => "chain",
            AggregatorTopology::Tree => "tree",
            AggregatorTopology::PipelinedTree => "pipelined-tree",
        };
        f.write_str(s)
    }
}

/// Configuration of the power-emulation transform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrumentConfig {
    /// Power strobe period in clock cycles (≥ 1). With period `P`, the
    /// snapshot queues and the accumulator update every `P`-th cycle and
    /// the readout is scaled by `P` — trading accuracy for observation
    /// bandwidth (ablation Ext-1).
    pub strobe_period: u32,
    /// Total bits of each quantized coefficient word (ablation Ext-2).
    /// The fraction is the widest that still fits the largest
    /// characterized coefficient (and per-model base) in this many bits.
    pub coeff_bits: u32,
    /// Aggregator topology (ablation Ext-3).
    pub aggregator: AggregatorTopology,
    /// Width of the energy accumulator register.
    pub accumulator_bits: u32,
    /// Also expose each component's per-strobe model output as a design
    /// output (`power_of__<component>`), mirroring the paper's note that
    /// "the outputs of … the power models can be observed during
    /// emulation to obtain the power consumption in … any part thereof".
    pub per_model_outputs: bool,
}

impl Default for InstrumentConfig {
    fn default() -> Self {
        Self {
            strobe_period: 1,
            coeff_bits: 16,
            aggregator: AggregatorTopology::Tree,
            accumulator_bits: 48,
            per_model_outputs: false,
        }
    }
}

impl InstrumentConfig {
    /// Validates parameter ranges.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.strobe_period == 0 {
            return Err("strobe period must be ≥ 1".into());
        }
        if self.coeff_bits == 0 || self.coeff_bits > 32 {
            return Err(format!(
                "coefficient width {} outside 1..=32",
                self.coeff_bits
            ));
        }
        if self.accumulator_bits < self.coeff_bits + 8 || self.accumulator_bits > 63 {
            return Err(format!(
                "accumulator width {} must be in {}..=63",
                self.accumulator_bits,
                self.coeff_bits + 8
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(InstrumentConfig::default().check().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cases = [
            InstrumentConfig {
                strobe_period: 0,
                ..InstrumentConfig::default()
            },
            InstrumentConfig {
                coeff_bits: 0,
                ..InstrumentConfig::default()
            },
            InstrumentConfig {
                coeff_bits: 40,
                ..InstrumentConfig::default()
            },
            InstrumentConfig {
                accumulator_bits: 12,
                ..InstrumentConfig::default()
            },
        ];
        for c in cases {
            assert!(c.check().is_err());
        }
    }

    #[test]
    fn topology_display() {
        assert_eq!(AggregatorTopology::Chain.to_string(), "chain");
        assert_eq!(AggregatorTopology::Tree.to_string(), "tree");
        assert_eq!(
            AggregatorTopology::PipelinedTree.to_string(),
            "pipelined-tree"
        );
        assert_eq!(AggregatorTopology::default(), AggregatorTopology::Tree);
    }
}
