//! Behavioral tests for the `pe-harness` event-sink layer: delivery
//! order, fanout semantics, aggregate correctness, and thread-safety of
//! every sink that the executor shares across workers.

use pe_harness::{Collector, Event, EventSink, Fanout, JobGraph, NullSink};
use pe_trace::{MetricValue, Registry};
use std::sync::Barrier;
use std::time::Duration;

fn queued(id: usize, stage: &str) -> Event {
    Event::JobQueued {
        id,
        stage: stage.into(),
        label: "design".into(),
    }
}

fn finished(id: usize, stage: &str, ms: u64) -> Event {
    Event::JobFinished {
        id,
        stage: stage.into(),
        label: "design".into(),
        wall: Duration::from_millis(ms),
    }
}

#[test]
fn collector_preserves_emission_order() {
    let c = Collector::new();
    for id in 0..5 {
        c.emit(&queued(id, "map"));
    }
    for id in 0..5 {
        c.emit(&finished(id, "map", id as u64));
    }
    let events = c.events();
    assert_eq!(events.len(), 10);
    for (id, e) in events[..5].iter().enumerate() {
        assert_eq!(e, &queued(id, "map"));
    }
    for (id, e) in events[5..].iter().enumerate() {
        assert_eq!(e, &finished(id, "map", id as u64));
    }
}

#[test]
fn fanout_delivers_to_every_sink_in_registration_order() {
    let first = Collector::new();
    let second = Collector::new();
    let registry = Registry::new();
    let fan = Fanout(vec![&first, &second, &registry]);
    fan.emit(&queued(0, "instrument"));
    fan.emit(&finished(0, "instrument", 7));
    assert_eq!(first.events(), second.events());
    assert_eq!(first.events().len(), 2);
    assert_eq!(registry.counter("harness.jobs_finished").get(), 1);
}

#[test]
fn null_sink_accepts_every_event_shape() {
    // NullSink is the default sink for quiet runs: it must accept every
    // variant without observable effect.
    let sink = NullSink;
    sink.emit(&queued(0, "characterize"));
    sink.emit(&Event::JobStarted {
        id: 0,
        stage: "characterize".into(),
        label: "design".into(),
    });
    sink.emit(&finished(0, "characterize", 1));
    sink.emit(&Event::JobFailed {
        id: 1,
        stage: "map".into(),
        label: "design".into(),
        wall: Duration::ZERO,
        error: "boom".into(),
    });
    sink.emit(&Event::JobSkipped {
        id: 2,
        stage: "time".into(),
        label: "design".into(),
        failed_dep: 1,
    });
    sink.emit(&Event::CacheStored {
        label: "design".into(),
        key: "ff".into(),
    });
}

#[test]
fn registry_separates_finished_from_failed_but_bills_wall_to_both() {
    let r = Registry::new();
    r.emit(&finished(0, "estimate", 40));
    r.emit(&Event::JobFailed {
        id: 1,
        stage: "estimate".into(),
        label: "design".into(),
        wall: Duration::from_millis(60),
        error: "overflow".into(),
    });
    assert_eq!(r.counter("harness.jobs_finished").get(), 1);
    assert_eq!(r.counter("harness.jobs_failed").get(), 1);
    let wall = r.histogram("harness.job_wall_us.estimate");
    assert_eq!(wall.count(), 2);
    assert_eq!(wall.sum(), 100_000);
}

#[test]
fn registry_records_events_as_harness_metrics() {
    let registry = Registry::new();
    registry.emit(&queued(0, "map"));
    registry.emit(&finished(0, "map", 3));
    registry.emit(&Event::CacheHit {
        label: "design".into(),
        key: "00".into(),
    });
    registry.emit(&Event::CacheMiss {
        label: "design".into(),
        key: "00".into(),
        reason: pe_harness::MissReason::Absent,
    });
    let snap = registry.snapshot();
    let value = |name: &str| {
        snap.iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing metric {name}"))
            .1
            .clone()
    };
    assert_eq!(value("harness.jobs_queued"), MetricValue::Counter(1));
    assert_eq!(value("harness.jobs_finished"), MetricValue::Counter(1));
    assert_eq!(value("harness.cache_hits"), MetricValue::Counter(1));
    assert_eq!(value("harness.cache_misses"), MetricValue::Counter(1));
    match value("harness.job_wall_us.map") {
        MetricValue::Histogram { count, sum, .. } => {
            assert_eq!(count, 1);
            assert_eq!(sum, 3000);
        }
        other => panic!("expected histogram, got {other:?}"),
    }
}

#[test]
fn sinks_survive_concurrent_emission_without_losing_events() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 200;
    let collector = Collector::new();
    let registry = Registry::new();
    let fan = Fanout(vec![&collector, &registry]);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let fan = &fan;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    fan.emit(&finished(t * PER_THREAD + i, "map", 1));
                }
            });
        }
    });
    assert_eq!(collector.events().len(), THREADS * PER_THREAD);
    let snap = registry.snapshot();
    let value = |name: &str| snap.iter().find(|(n, _)| n == name).unwrap().1.clone();
    assert_eq!(
        value("harness.jobs_finished"),
        MetricValue::Counter((THREADS * PER_THREAD) as u64)
    );
    assert_eq!(
        value("harness.job_wall_us.map"),
        MetricValue::Histogram {
            count: (THREADS * PER_THREAD) as u64,
            sum: (THREADS * PER_THREAD * 1000) as u64,
            max: 1000,
        }
    );
    // Interleaving across threads is arbitrary, but each thread's own
    // events must appear in its emission order.
    let events = collector.events();
    for t in 0..THREADS {
        let ids: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                Event::JobFinished { id, .. }
                    if (t * PER_THREAD..(t + 1) * PER_THREAD).contains(id) =>
                {
                    Some(*id)
                }
                _ => None,
            })
            .collect();
        assert_eq!(ids.len(), PER_THREAD);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "thread {t} reordered");
    }
}

#[test]
fn executor_event_stream_tells_a_consistent_story() {
    // Run a real graph and check the event stream agrees with the
    // outcome list: every queued job either finishes, fails, or is
    // skipped, and queued events arrive in submission order.
    let collector = Collector::new();
    let registry = Registry::new();
    let fan = Fanout(vec![&collector, &registry]);
    let mut graph: JobGraph<'_, u32, String> = JobGraph::new();
    let ok = graph.add("produce", "a", vec![], |_| Ok(1));
    let bad = graph.add("produce", "b", vec![], |_| Err("boom".to_string()));
    graph.add("consume", "a", vec![ok], |deps| Ok(*deps[0] + 1));
    graph.add("consume", "b", vec![bad], |deps| Ok(*deps[0] + 1));
    graph.run(2, &fan);

    let events = collector.events();
    let queued_ids: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            Event::JobQueued { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(queued_ids, vec![0, 1, 2, 3]);
    let terminal = |id: usize| {
        events
            .iter()
            .filter(|e| match e {
                Event::JobFinished { id: i, .. }
                | Event::JobFailed { id: i, .. }
                | Event::JobSkipped { id: i, .. } => *i == id,
                _ => false,
            })
            .count()
    };
    for id in 0..4 {
        assert_eq!(terminal(id), 1, "job {id} must reach exactly one end state");
    }
    assert_eq!(registry.counter("harness.jobs_finished").get(), 2);
    assert_eq!(registry.counter("harness.jobs_failed").get(), 1);
    assert_eq!(registry.counter("harness.jobs_skipped").get(), 1);
    assert!(events.iter().any(|e| matches!(
        e,
        Event::JobSkipped {
            id: 3,
            failed_dep: 1,
            ..
        }
    )));
}
