//! Registry concurrency: N writer threads hammer counters, gauges, and
//! histograms while M reader threads snapshot continuously. Totals must
//! be conserved exactly once writers quiesce, and no intermediate
//! snapshot may be "torn" — observe more than has been written, go
//! backwards between successive snapshots, or hold a histogram whose
//! bucket sum disagrees with its derived count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const WRITERS: usize = 8;
const READERS: usize = 3;
const OPS_PER_WRITER: u64 = 20_000;

#[test]
fn totals_conserved_and_snapshots_monotone_under_contention() {
    assert!(crowd_obs::enabled(), "suite must run with recording on");
    let counter = crowd_obs::counter("obs.test.hammer_total");
    let gauge = crowd_obs::gauge("obs.test.hammer_in_flight");
    let hist = crowd_obs::histogram("obs.test.hammer_seconds");
    let base_count = crowd_obs::snapshot().counter("obs.test.hammer_total");

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut last_counter = 0u64;
                let mut last_hist = 0u64;
                let mut snaps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let s = crowd_obs::snapshot();
                    let c = s.counter("obs.test.hammer_total");
                    assert!(
                        c >= last_counter,
                        "counter went backwards: {last_counter} -> {c}"
                    );
                    last_counter = c;
                    if let Some(h) = s.histogram("obs.test.hammer_seconds") {
                        let bucket_sum: u64 = h.buckets.iter().sum();
                        assert_eq!(
                            bucket_sum, h.count,
                            "torn histogram: buckets disagree with count"
                        );
                        assert!(
                            h.count >= last_hist,
                            "histogram count went backwards: {last_hist} -> {}",
                            h.count
                        );
                        last_hist = h.count;
                        assert!(h.sum >= 0.0 && h.sum.is_finite());
                        assert!(h.max >= 0.0 && h.max.is_finite());
                    }
                    snaps += 1;
                }
                snaps
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let counter = counter.clone();
            let gauge = gauge.clone();
            let hist = hist.clone();
            thread::spawn(move || {
                for i in 0..OPS_PER_WRITER {
                    counter.inc();
                    gauge.add(1);
                    // Values spread across buckets; all positive.
                    hist.record(1e-6 * (1 + (w as u64 * 7 + i) % 1000) as f64);
                    gauge.add(-1);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_snaps = 0;
    for r in readers {
        total_snaps += r.join().expect("reader panicked");
    }
    assert!(total_snaps > 0, "readers never snapshotted");

    // Quiesced totals are exact.
    let s = crowd_obs::snapshot();
    assert_eq!(
        s.counter("obs.test.hammer_total") - base_count,
        WRITERS as u64 * OPS_PER_WRITER
    );
    let h = s.histogram("obs.test.hammer_seconds").expect("registered");
    assert_eq!(h.count, WRITERS as u64 * OPS_PER_WRITER);
    assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    let g = s.gauge("obs.test.hammer_in_flight").expect("registered");
    assert_eq!(g.value, 0, "every add(1) was matched by an add(-1)");
    assert!(g.high_water >= 1 && g.high_water <= WRITERS as i64);

    // The float sum survived the CAS contention: it equals the
    // sequential sum of the same values (addition order differs, so
    // allow accumulation-order rounding, which is ~1e-12 relative).
    let expected: f64 = (0..WRITERS as u64)
        .flat_map(|w| (0..OPS_PER_WRITER).map(move |i| 1e-6 * (1 + (w * 7 + i) % 1000) as f64))
        .sum();
    assert!(
        (h.sum - expected).abs() / expected < 1e-9,
        "sum {} vs expected {expected}",
        h.sum
    );
}
