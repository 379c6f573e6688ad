//! Static-analysis gate over the benchmark suite: prepares every design
//! the way `pe-serve` does ([`pe_core::PowerEmulationFlow::stage_prepare`]:
//! instrument, lint, compile the served tape) and reports the `pe-lint`
//! findings — structural rules, clock discipline, and the
//! instrumentation-soundness checks, including the interval-analysis
//! accumulator overflow proof at each design's paper emulation horizon —
//! and the tape certificates.
//!
//! Usage: `cargo run -p pe-bench --release --bin lint --
//! [--scale test|paper] [--jobs N] [--cache-dir DIR] [--deny RULES]
//! [--machine]`
//!
//! `--deny all` promotes every warning to an error (the CI
//! configuration); `--deny cdc,acc-overflow` promotes just those rules.
//! `--machine` emits one `key=value` line per design instead of the
//! human table; its `tape_*` fields certify the *plain* (uninstrumented)
//! design's tape, locked in `tests/golden/lint_machine.txt` (the served
//! tape is locked in `tests/golden/served_tapes.txt`). Exit status is 0
//! iff every design is clean under the requested denylist and both its
//! plain and its served tape pass translation validation.

use pe_bench::cli::{BenchArgs, CliError, FlagExt};
use pe_bench::fast_flow;
use pe_designs::suite::all_benchmarks;
use pe_harness::{obtain_library, Fanout, JobGraph, JobOutcome, StderrLines};
use pe_lint::{Denylist, LintReport, ALL_RULES};
use pe_tape::TapeCertificate;
use pe_trace::Registry;

/// The lint binary's extension flags on the shared dialect.
struct LintFlags {
    deny: Denylist,
    machine: bool,
}

impl FlagExt for LintFlags {
    fn flag(
        &mut self,
        flag: &str,
        value: &mut dyn FnMut(&str) -> Result<String, CliError>,
    ) -> Result<bool, CliError> {
        match flag {
            "--deny" => {
                let spec = value("--deny")?;
                self.deny = Denylist::parse(&spec)
                    .map_err(|e| CliError::Invalid(format!("--deny: {e}")))?;
            }
            "--machine" => self.machine = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

const EXTRA_USAGE: &str = "\x20 --deny RULES         promote warnings to errors: \
`all`, `none`, or rule ids\n\
\x20 --machine            key=value output, one line per design\n";

/// One design's verdict: the horizon it was linted at, the served
/// design's lint report, and the plain and served tape certificates.
struct Verdict {
    horizon: u64,
    report: LintReport,
    plain: TapeCertificate,
    served: TapeCertificate,
}

fn main() {
    let mut flags = LintFlags {
        deny: Denylist::None,
        machine: false,
    };
    let args = BenchArgs::from_env_with("lint", &mut flags, EXTRA_USAGE);
    let LintFlags { deny, machine } = flags;
    let cache = args.open_cache();
    let benchmarks = all_benchmarks();

    if !machine {
        println!(
            "lint: instrumentation soundness over the suite, {:?} scale, {} job(s), deny={deny:?}",
            args.scale, args.jobs
        );
        println!();
    }

    let progress = StderrLines::new("lint", false);
    let registry = Registry::new();
    let sink = Fanout(vec![&progress, &registry]);
    let cache = cache.as_ref();

    let mut graph: JobGraph<'_, Verdict, String> = JobGraph::new();
    for bench in &benchmarks {
        let horizon = bench.cycles(args.scale);
        let (sink, registry) = (&sink, &registry);
        graph.add("lint", bench.name, vec![], move |_| {
            // `--deny` is applied below: stage_prepare only lints.
            let flow = fast_flow().with_lint(Denylist::None, Some(horizon));
            let library = obtain_library(
                &bench.design,
                flow.characterize_config(),
                cache,
                bench.name,
                sink,
            )
            .map_err(|e| e.to_string())?;
            flow.install_library(library);
            let prepared = flow
                .stage_prepare(&bench.design, registry)
                .map_err(|e| e.to_string())?;
            let (_, plain) =
                pe_tape::Tape::compile_optimized(&bench.design).map_err(|e| e.to_string())?;
            Ok(Verdict {
                horizon,
                report: prepared.report,
                plain,
                served: prepared.certificate,
            })
        });
    }

    let outcomes = graph.run(args.jobs, &sink);
    let mut all_clean = true;
    for (bench, outcome) in benchmarks.iter().zip(&outcomes) {
        let Verdict {
            horizon,
            report,
            plain,
            served,
        } = match outcome {
            JobOutcome::Done(v) => v.as_ref(),
            other => {
                let why = match other {
                    JobOutcome::Failed(e) => e.clone(),
                    JobOutcome::Panicked(msg) => format!("panic: {msg}"),
                    _ => "skipped".to_string(),
                };
                eprintln!("[lint] {} failed: {why}", bench.name);
                std::process::exit(1);
            }
        };
        let clean = report.is_clean(&deny);
        // The tape certificates are part of the static gate: a tape the
        // validator cannot certify fails the run like a lint error.
        all_clean &= clean && plain.validated && served.validated;
        for (which, c) in [("plain", plain), ("served", served)] {
            if let Some(reason) = &c.reason {
                eprintln!(
                    "[lint] {}: {which} tape not validated: {reason}",
                    bench.name
                );
            }
        }
        if machine {
            print!(
                "design={} horizon={horizon} findings={} errors={} clean={clean}",
                bench.name,
                report.diagnostics.len(),
                report.error_count(&deny),
            );
            for &rule in ALL_RULES {
                let n = report.by_rule(rule).count();
                if n > 0 {
                    print!(" {}={n}", rule.id());
                }
            }
            for b in &report.bounds {
                print!(
                    " clock={} accumulator_bits={} max_increment={} strobe_period={} safe_cycles={}",
                    b.clock, b.accumulator_bits, b.max_increment, b.strobe_period, b.safe_cycles
                );
            }
            for c in &report.certs {
                print!(
                    " cert_clock={} cert_max_increment={} cert_period={} cert_toggle_bound={} \
                     cert_monitored_bits={} cert_stable_bits={} cert_energy_fj={:e}",
                    c.clock,
                    c.max_increment,
                    c.strobe_period,
                    c.toggle_bound,
                    c.monitored_bits,
                    c.stable_bits,
                    c.energy_bound_fj(*horizon)
                );
            }
            println!(" {}", plain.machine_fields());
        } else {
            let verdict = if clean { "clean" } else { "FAILED" };
            println!(
                "{:<12} {verdict:>7}  findings={} errors={}",
                bench.name,
                report.diagnostics.len(),
                report.error_count(&deny),
            );
            for d in &report.diagnostics {
                println!("  {}: {d}", d.effective_severity(&deny));
            }
            for b in &report.bounds {
                println!(
                    "  note: `{}` accumulator ({} bits) proven safe for {} cycles \
                     (horizon {horizon}, max increment {}/strobe, period {})",
                    b.clock, b.accumulator_bits, b.safe_cycles, b.max_increment, b.strobe_period
                );
            }
            for c in &report.certs {
                println!(
                    "  note: `{}` certified energy <= {:.3e} fJ over {horizon} cycles \
                     (toggle bound {} of {} monitored bits, {} proven stable)",
                    c.clock,
                    c.energy_bound_fj(*horizon),
                    c.toggle_bound,
                    c.monitored_bits,
                    c.stable_bits
                );
            }
            for (which, c) in [("plain", plain), ("served", served)] {
                let verdict = if c.validated {
                    "validated"
                } else {
                    "NOT VALIDATED"
                };
                println!(
                    "  note: {which} tape {verdict}, {} -> {} instructions ({} removed), \
                     {} -> {} planes",
                    c.pre_instructions,
                    c.post_instructions,
                    c.instructions_removed(),
                    c.pre_planes,
                    c.post_planes
                );
            }
        }
    }

    if !machine {
        println!();
        if all_clean {
            println!("lint: all {} designs clean", benchmarks.len());
        } else {
            println!("lint: findings promoted to errors by deny={deny:?}");
        }
        println!();
        print!("{}", registry.render());
    }
    if !all_clean {
        std::process::exit(1);
    }
}
