//! Certified-vs-measured: the static activity certifier's per-domain
//! energy ceilings must dominate every measurement the repo can produce.
//!
//! The certificate is a *proof artifact*: `max_increment` is the refined
//! interval bound of the domain's accumulator increment, so the raw
//! accumulator can never gain more than `max_increment` per strobe, and
//! [`PowerCertificate::energy_bound_fj`] converts that integer ceiling
//! through the exact same `f64` operation shape as the measurement path
//! (`sum(raw) as f64 * lsb * strobe_period`). Dominance therefore needs
//! no epsilon: we assert `measured <= certified` outright, twice over —
//!
//! * against the committed golden power waveforms (`tests/golden/
//!   *.waveform`), the repo's pinned record of measured reality;
//! * against live serial replays of the canonical testbench.
//!
//! Every comparison also reports its slack, so a certificate that goes
//! vacuously loose (or suspiciously tight) is visible in test output.
//!
//! The suite is prepared exactly as `pe-serve` prepares it
//! ([`PowerEmulationFlow::stage_prepare`]), so the served tapes'
//! certificates are locked here too, in `tests/golden/served_tapes.txt`.
//! If a change to them is intentional, regenerate the fixture with
//! `PE_BLESS=1 cargo test --test certify` and review the diff.

use power_emulation::designs::suite::{all_benchmarks, Benchmark};
use power_emulation::lint::Denylist;
use power_emulation::sim::Simulator;
use power_emulation::trace::{PowerWaveform, Registry};
use std::path::PathBuf;

use power_emulation::core::{PowerEmulationFlow, Prepared};
use power_emulation::power::CharacterizeConfig;

/// Cycles per design for the live replays (tier-1 runs in debug, so the
/// big designs get short workloads).
fn budget(name: &str) -> u64 {
    match name {
        "MPEG4" => 240,
        "DCT" | "IDCT" => 600,
        _ => 400,
    }
}

/// The suite as served — instrumented, linted, and compiled to a
/// validated tape — built once: instrumenting DCT/IDCT/MPEG4 in debug is
/// tens of seconds.
fn certified(bench: &Benchmark) -> &'static Prepared {
    static CERTIFIED: std::sync::OnceLock<Vec<(String, Prepared)>> = std::sync::OnceLock::new();
    let all = CERTIFIED.get_or_init(|| {
        all_benchmarks()
            .iter()
            .map(|bench| {
                let flow = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
                flow.prepare_models(&bench.design).expect("characterize");
                let prepared = flow
                    .stage_prepare(&bench.design, &Registry::new())
                    .expect("prepare");
                (bench.name.to_string(), prepared)
            })
            .collect()
    });
    &all.iter()
        .find(|(name, _)| name == bench.name)
        .expect("suite design")
        .1
}

fn waveform_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.waveform"))
}

#[test]
fn every_suite_design_is_certified_per_domain() {
    for bench in all_benchmarks() {
        let prepared = certified(&bench);
        let (inst, report) = (&prepared.instrumented, &prepared.report);
        assert!(
            report.is_clean(&Denylist::All),
            "{} is not clean under --deny all:\n{report}",
            bench.name
        );
        assert_eq!(
            report.certs.len(),
            inst.domains.len(),
            "{}: every clock domain must carry a certificate",
            bench.name
        );
        for cert in &report.certs {
            assert!(cert.monitored_bits > 0, "{}: vacuous cert", bench.name);
            assert!(
                cert.toggle_bound <= cert.monitored_bits,
                "{}: toggle bound exceeds monitored bits",
                bench.name
            );
            let e = cert.energy_bound_fj(1_000_000);
            assert!(e.is_finite() && e > 0.0, "{}: bound {e}", bench.name);
        }
    }
}

#[test]
fn golden_waveforms_never_exceed_the_certificates() {
    for bench in all_benchmarks() {
        let path = waveform_path(bench.name);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let wave = PowerWaveform::from_text(&text).expect("golden waveform parses");
        let prepared = certified(&bench);
        let (inst, report) = (&prepared.instrumented, &prepared.report);
        // Guard against config drift: the certificate's energy scale must
        // be the scale the fixture was recorded at, or the comparison is
        // meaningless.
        assert_eq!(
            wave.lsb_fj.to_bits(),
            inst.format.lsb().to_bits(),
            "{}: fixture lsb differs from instrumented lsb",
            bench.name
        );
        assert_eq!(wave.strobe_period, inst.strobe_period, "{}", bench.name);
        let first = wave.samples.first().expect("non-empty waveform");
        let last = wave.samples.last().expect("non-empty waveform");
        let horizon = last.cycle - first.cycle;
        // Raw-domain dominance, per channel: channel i is domain i's
        // cumulative accumulator, so its delta over the window is the
        // measured raw gain the certificate's `raw_bound` must cover.
        for (i, _ch) in wave.channels.iter().enumerate() {
            let cert = report
                .cert_for_domain(i)
                .unwrap_or_else(|| panic!("{}: domain {i} uncertified", bench.name));
            let measured = u128::from(last.raw[i] - first.raw[i]);
            let bound = cert.raw_bound(horizon);
            assert!(
                measured <= bound,
                "{} domain {i}: measured raw {measured} exceeds certified {bound} \
                 over {horizon} cycles",
                bench.name
            );
        }
        // Energy dominance end to end, in the measurement units.
        let measured_fj = wave.integral_fj();
        let certified_fj: f64 = report
            .certs
            .iter()
            .map(|c| c.energy_bound_fj(horizon))
            .sum();
        assert!(
            measured_fj <= certified_fj,
            "{}: measured {measured_fj:e} fJ exceeds certified {certified_fj:e} fJ",
            bench.name
        );
        eprintln!(
            "certify[golden] {:<12} {horizon:>5} cycles: measured {measured_fj:>14.3e} fJ \
             <= certified {certified_fj:>14.3e} fJ (slack {:.1}x)",
            bench.name,
            if measured_fj > 0.0 {
                certified_fj / measured_fj
            } else {
                f64::INFINITY
            }
        );
    }
}

#[test]
fn live_replays_never_exceed_the_certificates() {
    for bench in all_benchmarks() {
        let prepared = certified(&bench);
        let (inst, report) = (&prepared.instrumented, &prepared.report);
        let cycles = budget(bench.name);
        let mut sim = Simulator::new(&inst.design).expect("serial sim");
        let mut tb = bench.testbench_shard(cycles, 0);
        for cycle in 0..cycles {
            tb.apply(cycle, &mut sim);
            tb.observe(cycle, &mut sim);
            sim.step();
        }
        // Per-domain raw dominance at the readback.
        let raw = inst.try_read_raw_totals(&mut sim).expect("raw totals");
        for (i, &measured) in raw.iter().enumerate() {
            let cert = report.cert_for_domain(i).expect("certified domain");
            assert!(
                u128::from(measured) <= cert.raw_bound(cycles),
                "{} domain {i}: raw {measured} exceeds certificate over {cycles} cycles",
                bench.name
            );
        }
        let measured_fj = inst.try_read_energy_fj(&mut sim).expect("energy readback");
        let certified_fj: f64 = report.certs.iter().map(|c| c.energy_bound_fj(cycles)).sum();
        assert!(
            measured_fj <= certified_fj,
            "{}: measured {measured_fj:e} fJ exceeds certified {certified_fj:e} fJ \
             over {cycles} cycles",
            bench.name
        );
        eprintln!(
            "certify[live]   {:<12} {cycles:>5} cycles: measured {measured_fj:>14.3e} fJ \
             <= certified {certified_fj:>14.3e} fJ (slack {:.1}x)",
            bench.name,
            if measured_fj > 0.0 {
                certified_fj / measured_fj
            } else {
                f64::INFINITY
            }
        );
    }
}

/// The served tape of every suite design is locked: its pre/post
/// instruction and plane counts, netlist and IR digests, per-pass deltas
/// and validated flag, one `design=… tape_…` line per design, rendered
/// by the same [`TapeCertificate::machine_fields`] the lint bench uses.
///
/// [`TapeCertificate::machine_fields`]: power_emulation::tape::TapeCertificate::machine_fields
#[test]
fn served_tapes_match_the_golden_fixture() {
    let mut got = String::new();
    for bench in all_benchmarks() {
        let cert = &certified(&bench).certificate;
        assert!(
            cert.validated,
            "{}: served tape failed translation validation: {:?}",
            bench.name, cert.reason
        );
        got.push_str(&format!(
            "design={} {}\n",
            bench.name,
            cert.machine_fields()
        ));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/served_tapes.txt");
    if std::env::var_os("PE_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write served_tapes.txt");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with PE_BLESS=1 cargo test --test certify",
            path.display()
        )
    });
    for (want, got) in want.lines().zip(got.lines()) {
        assert_eq!(
            want, got,
            "served tape diverged (if intentional: PE_BLESS=1 cargo test --test certify)"
        );
    }
    assert_eq!(
        want.lines().count(),
        got.lines().count(),
        "served_tapes.txt must hold one line per suite design"
    );
}
