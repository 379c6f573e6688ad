//! The lane-packing correctness contract, end to end: concurrent
//! requests with *mixed* cycle counts packed into wide batches produce
//! energies bit-identical to fresh serial single-lane runs of the same
//! (design, cycles, seed, model) — including batches beyond 64 jobs,
//! which the scheduler runs on the wider 128-lane engine, and pipelined
//! clients served by more than one batch worker.

use pe_designs::suite::benchmark;
use pe_harness::{obtain_library, ModelCache, NullSink};
use pe_power::CharacterizeConfig;
use pe_serve::{ModelChoice, Response, ResultBody, Scheduler, ServeConfig, SubmitRequest};
use pe_sim::Simulator;
use pe_trace::Registry;
use std::sync::mpsc;
use std::time::Duration;

const DESIGN: &str = "Bubble_Sort";

fn temp_cache(tag: &str) -> ModelCache {
    let dir = std::env::temp_dir().join(format!("pe-serve-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ModelCache::open(dir).expect("temp cache dir")
}

/// Runs `clients` concurrent client threads against a scheduler with
/// `workers` batch workers. Each client pipelines `requests` jobs (all
/// submitted before it waits for any result) on its own channel; job
/// `j = client * requests + r` asks for the `(cycles, seed)` given by
/// `job(j)`. Every energy must equal a fresh serial single-lane
/// run of the same (design, cycles, seed, model) through the same
/// characterize→instrument pipeline, bit for bit. Returns the results
/// and the scheduler's registry for shape-specific checks.
fn packed_energies_match_serial(
    tag: &str,
    workers: usize,
    clients: usize,
    requests: usize,
    job: impl Fn(usize) -> (u64, u64) + Sync,
    linger: Duration,
) -> (Vec<ResultBody>, Registry) {
    let cache = temp_cache(tag);
    let registry = Registry::new();
    let sched = Scheduler::start(
        ServeConfig {
            workers,
            linger,
            model_cache: Some(cache.clone()),
            ..ServeConfig::default()
        },
        registry.clone(),
    );

    let results: Vec<ResultBody> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (sched, job) = (&sched, &job);
                scope.spawn(move || {
                    let (tx, rx) = mpsc::channel();
                    for r in 0..requests {
                        let (cycles, seed) = job(client * requests + r);
                        let req = SubmitRequest {
                            id: format!("c{client}.{r}"),
                            design: DESIGN.to_string(),
                            cycles,
                            seed,
                            model: ModelChoice::Fast,
                        };
                        // Distinct client ids: the round-robin packer
                        // interleaves them.
                        sched.submit(req, client as u64, &tx);
                    }
                    let (mut accepted, mut done) = (0, Vec::new());
                    while done.len() < requests {
                        match rx.recv_timeout(Duration::from_secs(300)).expect("response") {
                            Response::Accepted { .. } => accepted += 1,
                            Response::Result(body) => done.push(body),
                            other => panic!("unexpected response: {other}"),
                        }
                    }
                    assert_eq!(accepted, requests, "client {client}");
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    assert_eq!(results.len(), clients * requests);

    // Fresh serial baseline through the same characterize→instrument
    // pipeline (the shared cache makes it literally the same library).
    let bench = benchmark(DESIGN).unwrap();
    let flow = pe_core::PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
    let library = obtain_library(
        &bench.design,
        flow.characterize_config(),
        Some(&cache),
        bench.name,
        &NullSink,
    )
    .expect("characterize");
    flow.install_library(library);
    let (inst, _overhead) = flow.stage_instrument(&bench.design).expect("instrument");

    for body in &results {
        let mut sim = Simulator::new(&inst.design).expect("serial sim");
        let mut tb = bench.testbench_shard(body.cycles, body.seed);
        for cycle in 0..body.cycles {
            tb.apply(cycle, &mut sim);
            tb.observe(cycle, &mut sim);
            sim.step();
        }
        let serial = inst.try_read_energy_fj(&mut sim).expect("energy port");
        assert_eq!(
            body.energy_bits,
            serial.to_bits(),
            "req {} (cycles={} seed={} lane={} batch={}): batched {:016x} vs serial {:016x}",
            body.req,
            body.cycles,
            body.seed,
            body.lane,
            body.batch,
            body.energy_bits,
            serial.to_bits()
        );
    }

    sched.shutdown();
    assert_eq!(sched.drain(), 0, "nothing was in flight after results");
    sched.join();
    (results, registry)
}

#[test]
fn sixty_four_concurrent_requests_match_serial_bit_for_bit() {
    // 64 jobs, distinct seeds, mixed cycle counts — each lane must be
    // read out at its own cycle boundary, not the batch's longest. The
    // generous fill window lets all 64 land in one wide run.
    let (results, _) = packed_energies_match_serial(
        "pack",
        1,
        64,
        1,
        |j| (40 + 3 * j as u64, 1000 + j as u64),
        Duration::from_millis(500),
    );
    assert!(results
        .iter()
        .all(|b| b.occupancy >= 1 && b.occupancy <= 64));
}

/// More clients than a 64-lane word holds: 128 concurrent mixed-cycle
/// requests pack into one 128-lane batch, every lane demuxes
/// bit-identically to a fresh serial run, and the occupancy metrics
/// reflect the wider packing.
#[test]
fn over_sixty_four_clients_pack_into_a_128_lane_batch() {
    // Submitting exactly the 128-lane cap makes the batch fire the
    // instant the last job lands; the long fill window only has to
    // outlast the submissions themselves.
    let (results, registry) = packed_energies_match_serial(
        "pack128",
        1,
        128,
        1,
        |j| (30 + 2 * j as u64, 2000 + j as u64),
        Duration::from_secs(30),
    );
    // Every job rode the full 128-lane batch.
    for body in &results {
        assert_eq!(
            body.occupancy, 128,
            "req {}: occupancy {} does not reflect 128-lane packing",
            body.req, body.occupancy
        );
    }
    // Lanes beyond 63 were actually used — the round-robin packer fills
    // all 128 lanes, one per client.
    assert!(
        results.iter().any(|b| b.lane == 127),
        "no job was demuxed from the top lane of the 128-lane word"
    );
    assert!(
        registry.histogram("serve.batch_lanes").max() > 64,
        "serve.batch_lanes never saw a batch wider than one word"
    );
    // 128 jobs on a 128-lane engine = 100% lane occupancy.
    assert_eq!(registry.histogram("serve.lane_occupancy").max(), 100);
}

/// Several workers and pipelined clients: 8 clients each keep 2
/// requests in flight at 128 cycles, served by 2 batch workers, so
/// batches form and run concurrently. Every energy is still bit-exact.
#[test]
fn pipelined_clients_on_two_workers_match_serial_bit_for_bit() {
    let (results, _) = packed_energies_match_serial(
        "pipelined",
        2,
        8,
        2,
        |j| (128, j as u64),
        Duration::from_millis(10),
    );
    let seeds: std::collections::BTreeSet<u64> = results.iter().map(|b| b.seed).collect();
    assert_eq!(
        seeds.len(),
        16,
        "every pipelined request got its own result"
    );
}
