//! Determinism and timing properties of the load generator.

use perfbench::loadgen::{
    closed_loop, open_loop, probe_stream, zipf_workload, KeySpace, Sample, ZipfStream, GRID_CELLS,
    ZIPF_CAPACITY,
};
use std::collections::HashSet;
use std::time::Duration;

fn stream(seed: u64) -> ZipfStream {
    ZipfStream {
        seed,
        s: 1.0,
        max_cells: 8,
        get_every: 4,
        cold_every: 20,
        rate: 100.0,
    }
}

#[test]
fn same_seed_same_stream() {
    let keys = KeySpace::new(7, 3);
    assert_eq!(keys, KeySpace::new(7, 3));
    let a = stream(7).generate(&keys, 2000);
    let b = stream(7).generate(&keys, 2000);
    assert_eq!(a, b, "keys, pipelines and send times repeat for one seed");
    let c = stream(8).generate(&keys, 2000);
    assert_ne!(a, c, "another seed gives another stream");
    assert_eq!(
        probe_stream(7, 50.0, 500, 20),
        probe_stream(7, 50.0, 500, 20)
    );
    // Fixed rate: send times step by exactly 1/rate.
    assert_eq!(a[100].at_us, 1_000_000);
    for op in &a {
        assert!((1..=8).contains(&op.sweep.cells.len()));
        let distinct: HashSet<_> = op.sweep.cells.iter().collect();
        assert_eq!(distinct.len(), op.sweep.cells.len());
        assert!(op.sweep.cells.iter().all(|&c| c < GRID_CELLS));
    }
}

#[test]
fn probe_misses_name_fresh_pipelines_in_order() {
    let ops = probe_stream(3, 50.0, 4000, 20);
    let fresh: Vec<usize> = ops
        .iter()
        .map(|o| o.sweep.pipeline)
        .filter(|&p| p > 0)
        .collect();
    assert_eq!(fresh, (1..=fresh.len()).collect::<Vec<_>>());
    // Every twentieth.
    assert_eq!(fresh.len(), 200);
    assert_eq!((ops[18].sweep.pipeline, ops[19].sweep.pipeline), (0, 1));
    assert!(probe_stream(3, 50.0, 4000, 0)
        .iter()
        .all(|o| o.sweep.pipeline == 0));
}

#[test]
fn cold_sweeps_name_fresh_pipelines_one_cell_per_benchmark() {
    let keys = KeySpace::new(7, 3);
    let ops = stream(5).generate(&keys, 4000);
    let base = keys.pipelines.len();
    let cold: Vec<_> = ops.iter().filter(|o| o.sweep.pipeline >= base).collect();
    let order: Vec<usize> = cold.iter().map(|o| o.sweep.pipeline).collect();
    assert_eq!(order, (base..base + cold.len()).collect::<Vec<_>>());
    // Every twentieth.
    assert_eq!(cold.len(), 200);
    assert_eq!(ops[19].sweep.pipeline, base);
    for o in &cold {
        let benches: HashSet<usize> = o.sweep.cells.iter().map(|c| c / 8).collect();
        assert_eq!(o.sweep.cells.len(), 8);
        assert_eq!(benches.len(), 8, "one cell per benchmark");
    }
    let fresh = stream(5).cold_pipelines(&keys, cold.len());
    assert_eq!(fresh.len(), cold.len());
    assert_eq!(fresh.iter().collect::<HashSet<_>>().len(), fresh.len());
    assert!(fresh
        .iter()
        .all(|p| !keys.pipelines.contains(&Some(p.clone()))));
    let hot = ZipfStream {
        cold_every: 0,
        ..stream(5)
    };
    assert!(hot
        .generate(&keys, 4000)
        .iter()
        .all(|o| o.sweep.pipeline < base));
}

#[test]
fn zipf_draw_covers_more_keys_than_the_cache() {
    // The open-loop phases of one serve-zipf run: 60 sweeps/s for 25.5 s.
    // Cold sweeps name keys outside the key space; count the Zipf draws.
    let (keys, stream) = zipf_workload(11, 60.0);
    assert!(keys.len() > ZIPF_CAPACITY);
    let ops = stream.generate(&keys, 1530);
    let touched: HashSet<usize> = ops
        .iter()
        .flat_map(|o| o.sweep.keys())
        .filter(|&k| k < keys.len())
        .collect();
    assert!(
        touched.len() > ZIPF_CAPACITY,
        "the stream touches {} keys, no more than the cache holds",
        touched.len()
    );
    // ... yet it is skewed: the most popular key recurs far more often
    // than a uniform draw would repeat it.
    let top = keys.ranking[0];
    let hits = ops
        .iter()
        .filter(|o| o.sweep.keys().any(|k| k == top))
        .count();
    assert!(
        hits > ops.len() / 10,
        "top key in only {hits} of {} sweeps",
        ops.len()
    );
}

#[test]
fn open_loop_latency_counts_from_the_scheduled_send() {
    // 1 ms spacing; requests 10 and 11 stall both workers for 300 ms.
    // Thresholds leave room for scheduling delays on a loaded host.
    let ops = probe_stream(1, 1000.0, 60, 0);
    let samples = open_loop(&ops, 2, Duration::from_secs(5), |i, clock, due| {
        let sent = clock.now_us();
        if i == 10 || i == 11 {
            std::thread::sleep(Duration::from_millis(300));
        }
        vec![Sample {
            due_us: due,
            sent_us: sent,
            done_us: clock.now_us(),
        }]
    });
    assert_eq!(samples.len(), 60);
    let mut by_due: Vec<Sample> = samples;
    by_due.sort_by_key(|s| s.due_us);
    // Requests queued behind the stall were sent late, and their latency
    // includes that wait even though their own service was instant.
    let late = &by_due[12..40];
    assert!(
        late.iter().all(|s| s.late_ms() > 150.0),
        "stall did not delay later sends"
    );
    assert!(late.iter().all(|s| s.latency_ms() >= s.late_ms()));
    let late_ms: Vec<f64> = by_due.iter().map(Sample::late_ms).collect();
    assert!(perfbench::stats::quantile(&late_ms, 0.99) > 150.0);
    // Before the stall the generator kept to its schedule.
    assert!(by_due[..10].iter().all(|s| s.late_ms() < 150.0));
}

#[test]
fn closed_loop_stops_after_its_limit() {
    let (samples, elapsed) = closed_loop(2, Duration::from_millis(100), |_, clock, due| {
        std::thread::sleep(Duration::from_millis(5));
        vec![Sample {
            due_us: due,
            sent_us: due,
            done_us: clock.now_us(),
        }]
    });
    assert!(elapsed >= Duration::from_millis(100));
    // Each request takes at least 5 ms and no worker starts one after the
    // limit: at most 100 / 5 + 1 per worker.
    assert!((2..=42).contains(&samples.len()), "{}", samples.len());
}
