//! The staged Figure-3 schedule: the serial per-benchmark evaluation
//! decomposed into a dependency-aware job graph so independent stages of
//! different benchmarks overlap across workers.
//!
//! Per benchmark, six jobs:
//!
//! ```text
//! characterize ──┬─► instrument ─► map ─► time ──┐
//! (cache-aware)  └─► estimate (measured tools) ──┴─► assemble (row)
//! ```
//!
//! Rows come back in benchmark submission order and — because every
//! power-relevant quantity is computed by the same `pe-core` stage
//! functions the serial path uses — are bit-identical to a serial run
//! at any worker count; only the *measured wall-clock* columns vary, as
//! they do between any two serial runs.

use pe_core::figure3::{assemble_row, measure_software, Figure3Row};
use pe_core::PowerEmulationFlow;
use pe_designs::suite::{Benchmark, Scale};
use pe_estimators::PowerReport;
use pe_fpga::emulate::{estimate_emulation_time, EmulationEstimate, EmulationTimeModel};
use pe_fpga::lut::LutNetlist;
use pe_instrument::InstrumentedDesign;
use pe_power::ModelLibrary;
use std::fmt;

use crate::cache::{obtain_library, ModelCache};
use crate::events::EventSink;
use crate::executor::{JobGraph, JobOutcome};

/// A harness-level failure: which stage of which benchmark failed, and
/// how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessError {
    /// Flow stage (`characterize`, `instrument`, …).
    pub stage: String,
    /// Benchmark label.
    pub label: String,
    /// Rendered underlying error.
    pub message: String,
}

impl HarnessError {
    /// Builds an error for `stage` of `label`.
    pub fn new(stage: &str, label: &str, message: impl fmt::Display) -> Self {
        Self {
            stage: stage.to_string(),
            label: label.to_string(),
            message: message.to_string(),
        }
    }
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}: {}", self.stage, self.label, self.message)
    }
}

impl std::error::Error for HarnessError {}

/// A factory producing identically configured flows. Each job builds its
/// own flow (the flow's model library lives in a `RefCell`, so a flow is
/// confined to one worker); determinism only needs every flow to carry
/// the same configuration.
pub type FlowFactory<'a> = &'a (dyn Fn() -> PowerEmulationFlow + Sync);

/// The intermediate artifact passed between jobs of the schedule.
enum Node {
    Library(ModelLibrary),
    Instrumented(InstrumentedDesign),
    Mapped(LutNetlist),
    Timed {
        emu: EmulationEstimate,
        devices: u32,
        luts: u32,
    },
    Software {
        nec: PowerReport,
        pt: PowerReport,
    },
    Row(Figure3Row),
}

/// Runs the Figure-3 evaluation as a parallel job graph.
///
/// `workers = 1` reproduces the serial schedule exactly; higher counts
/// overlap benchmarks. A `cache` makes the characterize stage
/// content-addressed. Rows are returned in `benchmarks` order.
///
/// # Errors
///
/// Returns the first failing stage in schedule order.
pub fn run_figure3(
    flow_factory: FlowFactory<'_>,
    benchmarks: &[Benchmark],
    scale: Scale,
    time_model: &EmulationTimeModel,
    workers: usize,
    cache: Option<&ModelCache>,
    sink: &dyn EventSink,
) -> Result<Vec<Figure3Row>, HarnessError> {
    let mut graph: JobGraph<'_, Node, HarnessError> = JobGraph::new();
    let mut row_jobs = Vec::with_capacity(benchmarks.len());

    for bench in benchmarks {
        let cycles = bench.cycles(scale);
        let name = bench.name;

        let lib = graph.add("characterize", name, vec![], move |_| {
            let flow = flow_factory();
            obtain_library(&bench.design, flow.characterize_config(), cache, name, sink)
                .map(Node::Library)
                .map_err(|e| HarnessError::new("characterize", name, e))
        });

        let soft = graph.add("estimate", name, vec![lib], move |deps| {
            let Node::Library(library) = &*deps[0] else {
                unreachable!("estimate depends on characterize")
            };
            let (nec, pt) = measure_software(library, bench, cycles)
                .map_err(|e| HarnessError::new("estimate", name, e))?;
            Ok(Node::Software { nec, pt })
        });

        let inst = graph.add("instrument", name, vec![lib], move |deps| {
            let Node::Library(library) = &*deps[0] else {
                unreachable!("instrument depends on characterize")
            };
            let flow = flow_factory();
            flow.install_library(library.clone());
            let (instrumented, _overhead) = flow
                .stage_instrument(&bench.design)
                .map_err(|e| HarnessError::new("instrument", name, e))?;
            Ok(Node::Instrumented(instrumented))
        });

        let mapped = graph.add("map", name, vec![inst], move |deps| {
            let Node::Instrumented(instrumented) = &*deps[0] else {
                unreachable!("map depends on instrument")
            };
            Ok(Node::Mapped(flow_factory().stage_map(instrumented)))
        });

        let timed = graph.add("time", name, vec![mapped], move |deps| {
            let Node::Mapped(netlist) = &*deps[0] else {
                unreachable!("time depends on map")
            };
            let flow = flow_factory();
            let timing = flow.stage_time(netlist);
            let partition = flow
                .stage_partition(netlist)
                .map_err(|e| HarnessError::new("time", name, e))?;
            // Single-device model, matching `FlowResult::emulation_time`.
            let emu = estimate_emulation_time(netlist, &timing, time_model, cycles, 1);
            Ok(Node::Timed {
                emu,
                devices: partition.devices,
                luts: netlist.resource_use().luts,
            })
        });

        let row = graph.add("assemble", name, vec![soft, timed], move |deps| {
            let Node::Software { nec, pt } = &*deps[0] else {
                unreachable!("assemble depends on estimate")
            };
            let Node::Timed { emu, devices, luts } = &*deps[1] else {
                unreachable!("assemble depends on time")
            };
            Ok(Node::Row(assemble_row(
                bench, cycles, nec, pt, *devices, *luts, emu,
            )))
        });
        row_jobs.push(row);
    }

    let outcomes = graph.run(workers, sink);
    collect_rows(&outcomes, &row_jobs)
}

/// Extracts the per-benchmark rows, or the first failure in schedule
/// order (a skipped row is traced back to the stage that actually
/// failed).
fn collect_rows(
    outcomes: &[JobOutcome<Node, HarnessError>],
    row_jobs: &[usize],
) -> Result<Vec<Figure3Row>, HarnessError> {
    if let Some(err) = outcomes.iter().find_map(|o| match o {
        JobOutcome::Failed(e) => Some(e.clone()),
        JobOutcome::Panicked(msg) => Some(HarnessError::new("executor", "panic", msg)),
        _ => None,
    }) {
        return Err(err);
    }
    row_jobs
        .iter()
        .map(|&id| match outcomes[id].done() {
            Some(Node::Row(row)) => Ok(row.clone()),
            _ => Err(HarnessError::new(
                "assemble",
                "figure3",
                "row job did not complete",
            )),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullSink;
    use pe_core::figure3 as serial;
    use pe_designs::suite::benchmark;
    use pe_power::CharacterizeConfig;
    use pe_trace::Registry;

    fn fast_factory() -> PowerEmulationFlow {
        PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast())
    }

    /// All the deterministic columns of a row (wall-clock measurements
    /// excluded), with floats captured bit-exactly.
    fn fingerprint(r: &Figure3Row) -> (String, usize, u64, u64, u64, u32, u32, u64, u64) {
        (
            r.design.clone(),
            r.components,
            r.cycles,
            r.emulation_seconds.to_bits(),
            r.f_emu_mhz.to_bits(),
            r.devices,
            r.luts,
            r.compile_seconds.to_bits(),
            r.avg_power_uw.to_bits(),
        )
    }

    #[test]
    fn staged_schedule_matches_the_serial_path() {
        let bench = benchmark("Bubble_Sort").unwrap();
        let model = EmulationTimeModel::default();
        let serial_rows = serial::run_figure3(
            &fast_factory(),
            std::slice::from_ref(&bench),
            Scale::Test,
            &model,
        )
        .unwrap();
        let staged = run_figure3(
            &fast_factory,
            std::slice::from_ref(&bench),
            Scale::Test,
            &model,
            2,
            None,
            &NullSink,
        )
        .unwrap();
        assert_eq!(staged.len(), 1);
        assert_eq!(fingerprint(&staged[0]), fingerprint(&serial_rows[0]));
    }

    #[test]
    fn worker_count_does_not_change_rows() {
        let benches = [
            benchmark("Bubble_Sort").unwrap(),
            benchmark("HVPeakF").unwrap(),
        ];
        let model = EmulationTimeModel::default();
        let run = |workers| {
            run_figure3(
                &fast_factory,
                &benches,
                Scale::Test,
                &model,
                workers,
                None,
                &NullSink,
            )
            .unwrap()
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one.len(), 2);
        let fp = |rows: &[Figure3Row]| rows.iter().map(fingerprint).collect::<Vec<_>>();
        assert_eq!(fp(&one), fp(&eight));
        // Order is submission order, not completion order.
        assert_eq!(one[0].design, "Bubble_Sort");
        assert_eq!(one[1].design, "HVPeakF");
    }

    #[test]
    fn metrics_count_six_jobs_per_benchmark() {
        let bench = benchmark("Bubble_Sort").unwrap();
        let registry = Registry::new();
        run_figure3(
            &fast_factory,
            std::slice::from_ref(&bench),
            Scale::Test,
            &EmulationTimeModel::default(),
            4,
            None,
            &registry,
        )
        .unwrap();
        assert_eq!(registry.counter("harness.jobs_finished").get(), 6);
        assert_eq!(registry.counter("harness.jobs_failed").get(), 0);
        for stage in [
            "characterize",
            "estimate",
            "instrument",
            "map",
            "time",
            "assemble",
        ] {
            let wall = registry.histogram(&format!("harness.job_wall_us.{stage}"));
            assert_eq!(wall.count(), 1, "stage {stage}");
        }
    }
}
