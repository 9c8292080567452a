//! The `CROWD_OBS` off-switch contract, exercised in its own process
//! (flipping the process-global flag would race the other suites'
//! recordings). One test, sequential phases.

#[test]
fn disabling_stops_recording_without_breaking_reads() {
    assert!(crowd_obs::enabled(), "starts enabled without CROWD_OBS");

    let c = crowd_obs::counter("obs.test.switch_total");
    let g = crowd_obs::gauge("obs.test.switch_depth");
    let h = crowd_obs::histogram("obs.test.switch_seconds");

    c.inc();
    g.set(5);
    h.record(1e-3);

    crowd_obs::set_enabled(false);
    assert!(!crowd_obs::enabled());

    // Everything below must be dropped…
    c.add(100);
    g.set(50);
    g.add(7);
    h.record(2e-3);
    {
        let _t = h.start_timer(); // no-op timer: never reads the clock
    }

    // …while registration and reads keep working.
    let s = crowd_obs::snapshot();
    assert_eq!(s.counter("obs.test.switch_total"), 1);
    let gs = s.gauge("obs.test.switch_depth").unwrap();
    assert_eq!((gs.value, gs.high_water), (5, 5));
    let hs = s.histogram("obs.test.switch_seconds").unwrap();
    assert_eq!(hs.count, 1);

    // Re-enable: recording resumes on the same cells.
    crowd_obs::set_enabled(true);
    c.inc();
    h.record(3e-3);
    let s = crowd_obs::snapshot();
    assert_eq!(s.counter("obs.test.switch_total"), 2);
    assert_eq!(s.histogram("obs.test.switch_seconds").unwrap().count, 2);
}
