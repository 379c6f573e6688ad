//! The benchmark suite: every design packaged with its workload.
//!
//! The evaluation harness (`pe-bench`) iterates [`all_benchmarks`] to
//! regenerate the paper's Figure 3. Two scales are provided:
//! [`Scale::Test`] keeps integration tests fast, [`Scale::Paper`] runs the
//! testbench lengths used for the reported numbers (the MPEG4 workload
//! corresponds to four 32×32 frames of the synthetic video stream).

use crate::mpeg4::{encode_frame, synthetic_blocks, BitstreamFeeder};
use pe_rtl::Design;
use pe_sim::{SimControl, Testbench};
use pe_util::rng::Xoshiro;

/// Testbench length scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Short runs for CI/integration tests.
    Test,
    /// The evaluation-length runs used by the Figure-3 harness.
    Paper,
}

/// Workload description, turned into a fresh [`Testbench`] per run.
#[derive(Debug, Clone)]
pub(crate) enum Workload {
    /// Fixed values plus per-cycle uniform-random values on named ports.
    Random {
        fixed: Vec<(&'static str, u64)>,
        random: Vec<(&'static str, u32)>,
        seed: u64,
    },
    /// A VLC bitstream under the `consume` handshake.
    Bitstream { seed: u64, qscale: Option<u64> },
}

/// Random-stimulus testbench shared by the stream-style designs.
#[derive(Debug, Clone)]
struct RandomStream {
    cycles: u64,
    fixed: Vec<(&'static str, u64)>,
    random: Vec<(&'static str, u32)>,
    rng: Xoshiro,
}

impl Testbench for RandomStream {
    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn apply(&mut self, _cycle: u64, sim: &mut dyn SimControl) {
        for (name, value) in &self.fixed {
            sim.set_input_by_name(name, *value);
        }
        for (name, width) in &self.random {
            let v = self.rng.bits(*width);
            sim.set_input_by_name(name, v);
        }
    }
}

/// A benchmark: a design plus its workload and run lengths.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// The paper's design name.
    pub name: &'static str,
    /// The constructed design.
    pub design: Design,
    pub(crate) workload: Workload,
    pub(crate) test_cycles: u64,
    pub(crate) paper_cycles: u64,
}

impl Benchmark {
    /// The run length for a scale.
    pub fn cycles(&self, scale: Scale) -> u64 {
        match scale {
            Scale::Test => self.test_cycles,
            Scale::Paper => self.paper_cycles,
        }
    }

    /// Builds a fresh testbench of the given length.
    pub fn testbench(&self, cycles: u64) -> Box<dyn Testbench> {
        self.testbench_shard(cycles, 0)
    }

    /// Builds shard `shard` of this benchmark's workload: the same kind of
    /// stimulus with a shard-derived seed, so independent shards can fill
    /// the 64 lanes of a bit-parallel pack. Shard 0 is the canonical
    /// [`Benchmark::testbench`] stimulus.
    pub fn testbench_shard(&self, cycles: u64, shard: u64) -> Box<dyn Testbench> {
        match &self.workload {
            Workload::Random {
                fixed,
                random,
                seed,
            } => Box::new(RandomStream {
                cycles,
                fixed: fixed.clone(),
                random: random.clone(),
                rng: Xoshiro::new(shard_seed(*seed, shard)),
            }),
            Workload::Bitstream { seed, qscale } => {
                // Worst case one bit per cycle: synthesize blocks until the
                // stream covers the run.
                let seed = shard_seed(*seed, shard);
                let mut bits = Vec::new();
                let mut round = 0u64;
                while (bits.len() as u64) < cycles {
                    bits.extend(encode_frame(&synthetic_blocks(64, seed ^ round)));
                    round += 1;
                }
                Box::new(BitstreamFeeder::new(bits, *qscale, cycles))
            }
        }
    }

    /// Builds `n` independent workload shards (shards `0..n`), ready to
    /// occupy the lanes of a wide tape run (`pe_tape::WideTapeSimulator`).
    pub fn testbench_shards(&self, cycles: u64, n: usize) -> Vec<Box<dyn Testbench>> {
        (0..n as u64)
            .map(|s| self.testbench_shard(cycles, s))
            .collect()
    }

    /// Builds the testbench at a named scale.
    pub fn testbench_at(&self, scale: Scale) -> Box<dyn Testbench> {
        self.testbench(self.cycles(scale))
    }
}

/// Derives a per-shard RNG seed; shard 0 keeps the canonical seed.
fn shard_seed(seed: u64, shard: u64) -> u64 {
    seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Builds the full seven-design suite of the paper's Figure 3, ordered as
/// in the figure (smallest to largest).
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "Bubble_Sort",
            design: crate::bubble::bubble_sort(64, 2005),
            workload: Workload::Random {
                fixed: Vec::new(),
                random: vec![("check_addr", 6)],
                seed: 11,
            },
            test_cycles: 1_000,
            paper_cycles: 25_000,
        },
        Benchmark {
            name: "HVPeakF",
            design: crate::peakf::hv_peak_filter(64),
            workload: Workload::Random {
                fixed: vec![("gain", 4)],
                random: vec![("pixel", 8)],
                seed: 12,
            },
            test_cycles: 1_000,
            paper_cycles: 30_000,
        },
        Benchmark {
            name: "DCT",
            design: crate::dct::dct8(),
            workload: Workload::Random {
                fixed: Vec::new(),
                random: vec![("sample", 8)],
                seed: 13,
            },
            test_cycles: 1_200,
            paper_cycles: 40_000,
        },
        Benchmark {
            name: "IDCT",
            design: crate::dct::idct8(),
            workload: Workload::Random {
                fixed: Vec::new(),
                random: vec![("sample", 12)],
                seed: 14,
            },
            test_cycles: 1_200,
            paper_cycles: 40_000,
        },
        Benchmark {
            name: "Ispq",
            design: crate::ispq::ispq(),
            workload: Workload::Random {
                fixed: vec![("qscale", 8)],
                random: vec![("level", 8), ("check_addr", 6)],
                seed: 15,
            },
            test_cycles: 1_500,
            paper_cycles: 50_000,
        },
        Benchmark {
            name: "Vld",
            design: crate::vld::vld(),
            workload: Workload::Bitstream {
                seed: 16,
                qscale: None,
            },
            test_cycles: 1_500,
            paper_cycles: 60_000,
        },
        Benchmark {
            name: "MPEG4",
            design: crate::mpeg4::mpeg4_decoder(),
            workload: Workload::Bitstream {
                seed: 17,
                qscale: Some(8),
            },
            test_cycles: 2_000,
            paper_cycles: 110_000,
        },
    ]
}

/// Finds a benchmark by its paper name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_rtl::stats::DesignStats;
    use pe_sim::run;

    #[test]
    fn suite_has_the_papers_designs_in_order() {
        let names: Vec<&str> = all_benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec![
                "Bubble_Sort",
                "HVPeakF",
                "DCT",
                "IDCT",
                "Ispq",
                "Vld",
                "MPEG4"
            ]
        );
    }

    #[test]
    fn mpeg4_is_the_largest_design() {
        let suite = all_benchmarks();
        let sizes: Vec<(usize, &str)> = suite
            .iter()
            .map(|b| (DesignStats::of(&b.design).components, b.name))
            .collect();
        let mpeg4 = sizes.iter().find(|(_, n)| *n == "MPEG4").unwrap().0;
        for (size, name) in &sizes {
            if *name != "MPEG4" {
                assert!(mpeg4 > *size, "MPEG4 ({mpeg4}) ≤ {name} ({size})");
            }
        }
    }

    #[test]
    fn every_benchmark_runs_at_test_scale() {
        for b in all_benchmarks() {
            let mut sim = pe_sim::Simulator::new(&b.design).unwrap();
            let mut tb = b.testbench_at(Scale::Test);
            let ran = run(&mut sim, tb.as_mut());
            assert_eq!(ran, b.cycles(Scale::Test), "{}", b.name);
        }
    }

    #[test]
    fn paper_scale_is_longer_than_test_scale() {
        for b in all_benchmarks() {
            assert!(b.cycles(Scale::Paper) > b.cycles(Scale::Test), "{}", b.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("DCT").is_some());
        assert!(benchmark("nope").is_none());
    }
}
