//! The figure3-flow workload: serial passes of the Figure-3 flow.
//!
//! One op is one design's flow: warm-cache `obtain_library` →
//! `stage_instrument` (with lint) → `stage_map` → `stage_time` →
//! `stage_partition` → `measure_software` at test cycles. Set-up
//! characterizes every design cold into a fresh cache. No tape or serve
//! code runs here; the traced run takes those layers from a serve probe.

use pe_core::figure3::measure_software;
use pe_core::PowerEmulationFlow;
use pe_designs::suite::{benchmark, Benchmark, Scale};
use pe_fpga::emulate::{estimate_emulation_time, EmulationTimeModel};
use pe_harness::{obtain_library, ModelCache, NullSink};
use pe_instrument::OverheadReport;
use pe_util::rng::Xoshiro;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::trace::{ms, Trace};
use crate::{serve, stats, Report, SERVE_LAYERS};

/// The six non-MPEG4 suite designs. MPEG4 is left out: its prepare alone
/// takes about a minute.
const DESIGNS: &[&str] = &["Bubble_Sort", "HVPeakF", "DCT", "IDCT", "Ispq", "Vld"];

/// Cold set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// A run completes about 16 flows, too few for any percentile above the
/// median to leave ten beyond it. The tail is taken over the six
/// per-design latencies instead, where p90 is the slowest design.
const TAIL_PCT: f64 = 90.0;

/// The deterministic Figure-3 columns of one design's flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    luts: u32,
    devices: u32,
    /// `f64` bits of the emulation clock, MHz.
    f_emu_bits: u64,
    /// `f64` bits of the software tools' average power, µW.
    power_bits: u64,
}

/// Reference columns, established from runs of the Figure-3 flow.
const REFERENCE: &[(&str, Row)] = &[
    (
        "Bubble_Sort",
        row(12997, 1, 4621529366202168440, 4631775233965944853),
    ),
    (
        "HVPeakF",
        row(10237, 1, 4621090304299646846, 4641527020793626615),
    ),
    (
        "DCT",
        row(491400, 9, 4617522237767679426, 4658302849318394371),
    ),
    (
        "IDCT",
        row(512391, 9, 4617362353058037524, 4658074528645385839),
    ),
    (
        "Ispq",
        row(16247, 1, 4620881698261933149, 4637309888616686171),
    ),
    (
        "Vld",
        row(9556, 1, 4622733654021690099, 4630478398003956586),
    ),
];

const fn row(luts: u32, devices: u32, f_emu_bits: u64, power_bits: u64) -> Row {
    Row {
        luts,
        devices,
        f_emu_bits,
        power_bits,
    }
}

fn reference(name: &str) -> Option<Row> {
    REFERENCE.iter().find(|(n, _)| *n == name).map(|(_, r)| *r)
}

/// One design's flow. Unspanned it calls the `pe-core` stages; with a
/// trace it calls the public pieces `stage_instrument` is made of, so
/// instrumentation and lint get spans of their own.
fn op(bench: &Benchmark, cache: &ModelCache, trace: Option<&mut Trace>) -> Result<Row, String> {
    let flow = PowerEmulationFlow::new();
    let name = bench.name;
    let cycles = bench.cycles(Scale::Test);
    let characterize = || {
        obtain_library(
            &bench.design,
            flow.characterize_config(),
            Some(cache),
            name,
            &NullSink,
        )
        .map_err(|e| format!("{name}: characterize failed: {e}"))
    };
    let (mapped, timing, partition, nec) = match trace {
        None => {
            let library = characterize()?;
            flow.install_library(library.clone());
            let (inst, _overhead) = flow
                .stage_instrument(&bench.design)
                .map_err(|e| format!("{name}: {e}"))?;
            let mapped = flow.stage_map(&inst);
            let timing = flow.stage_time(&mapped);
            let partition = flow
                .stage_partition(&mapped)
                .map_err(|e| format!("{name}: {e}"))?;
            let (nec, _pt) =
                measure_software(&library, bench, cycles).map_err(|e| format!("{name}: {e}"))?;
            (mapped, timing, partition, nec)
        }
        Some(trace) => {
            let library = trace.time("characterize.warm_ms", name, characterize)?;
            let t = Instant::now();
            let inst = pe_instrument::instrument(&bench.design, &library, flow.instrument_config())
                .map_err(|e| format!("{name}: instrumentation failed: {e}"))?;
            let instrument_ms = ms(t.elapsed());
            let report = trace.time("lint.ms", name, || pe_lint::lint_instrumented(&inst, None));
            if !report.is_clean(&pe_lint::Denylist::None) {
                return Err(format!("{name}: the lint gate failed"));
            }
            let t = Instant::now();
            let _overhead = OverheadReport::measure(&bench.design, &inst);
            trace.record("instrument.ms", name, instrument_ms + ms(t.elapsed()));
            let mapped = trace.time("map.ms", name, || flow.stage_map(&inst));
            let timing = trace.time("timing.ms", name, || flow.stage_time(&mapped));
            let partition = trace
                .time("partition.ms", name, || flow.stage_partition(&mapped))
                .map_err(|e| format!("{name}: {e}"))?;
            let (nec, _pt) = trace
                .time("estimate.ms", name, || {
                    measure_software(&library, bench, cycles)
                })
                .map_err(|e| format!("{name}: {e}"))?;
            (mapped, timing, partition, nec)
        }
    };
    let emu = estimate_emulation_time(&mapped, &timing, &EmulationTimeModel::default(), cycles, 1);
    Ok(Row {
        luts: mapped.resource_use().luts,
        devices: partition.devices,
        f_emu_bits: emu.f_emu_mhz.to_bits(),
        power_bits: nec.average_power_uw().to_bits(),
    })
}

/// Characterizes every design cold into a fresh cache at `dir`.
fn characterize_cold(
    benches: &[Benchmark],
    dir: &Path,
    trace: &mut Trace,
) -> Result<ModelCache, String> {
    let cache = ModelCache::open(dir).map_err(|e| format!("cannot open a model cache: {e}"))?;
    let flow = PowerEmulationFlow::new();
    for b in benches {
        trace
            .time("characterize.cold_ms", b.name, || {
                obtain_library(
                    &b.design,
                    flow.characterize_config(),
                    Some(&cache),
                    b.name,
                    &NullSink,
                )
            })
            .map_err(|e| format!("{}: characterize failed: {e}", b.name))?;
    }
    Ok(cache)
}

/// Checks a row against the reference; the mismatch names the observed
/// values so a deliberate change can update the table.
fn check(name: &str, row: Row, problems: &mut Vec<String>) {
    if reference(name) != Some(row) {
        problems.push(format!(
            "{name}: flow columns {row:?} differ from the reference"
        ));
    }
}

/// The map and estimate layers of a serve workload's designs: one
/// spanned flow op per design, against a freshly filled cache.
pub fn probe(benches: &[Benchmark], scratch: &Path, trace: &mut Trace, problems: &mut Vec<String>) {
    let mut cold = Trace::default();
    let cache = match characterize_cold(benches, &scratch.join("flow-probe-cache"), &mut cold) {
        Ok(c) => c,
        Err(e) => {
            problems.push(e);
            return;
        }
    };
    for b in benches {
        match op(b, &cache, Some(trace)) {
            Ok(row) => {
                trace.count("map.luts", f64::from(row.luts));
                check(b.name, row, problems);
            }
            Err(e) => problems.push(e),
        }
    }
}

pub fn run(seed: u64, seconds: Duration, traced: bool, scratch: &Path) -> Report {
    let mut report = Report::default();
    let benches: Vec<Benchmark> = DESIGNS
        .iter()
        .map(|n| benchmark(n).expect("suite design"))
        .collect();

    // Set-up: cold characterization into a fresh cache. The first cache
    // serves the measured passes; the spare set-ups are spread over the
    // measured time so that one slow host episode cannot cover them all.
    let mut setup_s = Vec::new();
    let mut setup = |report: &mut Report| {
        let dir = scratch.join(format!("flow-cache-{}", setup_s.len()));
        let t = Instant::now();
        let cache = characterize_cold(&benches, &dir, &mut report.trace);
        setup_s.push(t.elapsed().as_secs_f64());
        cache
    };
    let cache = match setup(&mut report) {
        Ok(c) => c,
        Err(e) => {
            report.problems.push(e);
            return report;
        }
    };
    let spares = if traced { 0 } else { SETUPS - 1 };
    let mut spared = 0;

    for b in &benches {
        match op(b, &cache, None) {
            Ok(row) => check(b.name, row, &mut report.problems),
            Err(e) => report.problems.push(e),
        }
    }

    let mut rng = Xoshiro::new(seed);
    let mut latency: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut luts: BTreeMap<usize, u32> = BTreeMap::new();
    let mut measured = Duration::ZERO;
    'passes: loop {
        let mut order: Vec<usize> = (0..benches.len()).collect();
        rng.shuffle(&mut order);
        for d in order {
            // Spare set-ups evenly spaced over the measured time.
            if spared < spares
                && measured >= seconds.mul_f64((spared + 1) as f64 / (spares + 1) as f64)
            {
                spared += 1;
                if let Err(e) = setup(&mut report) {
                    report.problems.push(e);
                }
            }
            if report.attempted > 0 && measured >= seconds && spared == spares {
                break 'passes;
            }
            report.attempted += 1;
            let t = Instant::now();
            let row = op(&benches[d], &cache, traced.then_some(&mut report.trace));
            let took = t.elapsed();
            measured += took;
            match row {
                Ok(row) => {
                    latency.entry(d).or_default().push(ms(took));
                    luts.insert(d, row.luts);
                    check(benches[d].name, row, &mut report.problems);
                }
                Err(e) => {
                    report.failed += 1;
                    report.problems.push(e);
                }
            }
        }
    }

    // Each design's fastest flow of the run: a run sees each design only
    // two or three times, too few for a median to outvote a slow host
    // episode.
    let best: Vec<f64> = latency
        .values()
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let Some(p50) = stats::median(&best) else {
        report.problems.push("no flow completed".to_string());
        return report;
    };
    let tail = stats::percentile(&best, TAIL_PCT).expect("non-empty");
    let ops_per_s = best.len() as f64 / (best.iter().sum::<f64>() / 1e3);
    report.notes.push(format!(
        "flows: {} measured; per design the fastest of the run, latency_p50_ms is their \
         median and latency_tail_ms their p{} (the slowest design)",
        report.attempted - report.failed,
        tail.pct
    ));
    report.end_to_end = vec![
        ("setup_s", stats::median(&setup_s).expect("one set-up"), "s"),
        ("ops_per_s", ops_per_s, "1/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_tail_ms", tail.value, "ms"),
    ];

    if traced {
        report.trace.count("trace.ops_per_s", ops_per_s);
        report
            .trace
            .count("map.luts", luts.values().map(|&l| f64::from(l)).sum());
        let mut probe = serve::measure(&serve::PROBE, seed, Duration::ZERO, true, scratch);
        report.trace.adopt(&mut probe.trace, SERVE_LAYERS);
        report.problems.append(&mut probe.problems);
    }
    report
}
