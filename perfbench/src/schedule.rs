//! The serve workload's open-loop arrival schedule: batches are due at a
//! fixed rate whatever the service does, and each batch is timed from
//! when it was due, so a stall also counts against the batches queued
//! behind it.

/// Arrivals every `interval` seconds from time 0 (arrival 0 is due at 0).
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval: f64,
}

impl Schedule {
    pub fn at_rate(per_second: f64) -> Self {
        assert!(per_second > 0.0, "a schedule needs a positive rate");
        Self {
            interval: 1.0 / per_second,
        }
    }

    /// When arrival `k` is due.
    pub fn due(&self, k: u64) -> f64 {
        k as f64 * self.interval
    }

    /// How many arrivals are due at or before `now`.
    pub fn due_by(&self, now: f64) -> u64 {
        if now < 0.0 {
            0
        } else {
            (now / self.interval).floor() as u64 + 1
        }
    }
}

/// Why a batch was sent after its due time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lateness {
    /// Time the batch waited behind the writer's earlier work (a tick or
    /// a churn still running when it fell due).
    pub queued: f64,
    /// The rest of the delay: the generator itself woke or sent late.
    pub generator: f64,
}

/// Split the delay of a batch due at `due` and sent at `sent`, when the
/// writer's previous work ended at `free_at`.
pub fn lateness(due: f64, free_at: f64, sent: f64) -> Lateness {
    let late = (sent - due).max(0.0);
    let queued = (free_at.min(sent) - due).clamp(0.0, late);
    Lateness {
        queued,
        generator: late - queued,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let s = Schedule::at_rate(4.0);
        assert_eq!(s.due(0), 0.0);
        assert_eq!(s.due(3), 0.75);
        assert_eq!(s.due_by(-0.1), 0);
        assert_eq!(s.due_by(0.0), 1);
        assert_eq!(s.due_by(0.24), 1);
        assert_eq!(s.due_by(0.25), 2);
        assert_eq!(s.due_by(1.0), 5);
    }

    #[test]
    fn lateness_splits_queueing_from_generator_delay() {
        // Sent on time: no delay at all.
        assert_eq!(
            lateness(1.0, 0.5, 1.0),
            Lateness {
                queued: 0.0,
                generator: 0.0
            }
        );
        // Fell due while a tick ran until 1.3, sent at 1.3: all queueing.
        let l = lateness(1.0, 1.3, 1.3);
        assert!((l.queued - 0.3).abs() < 1e-12 && l.generator == 0.0);
        // Writer idle since 0.5, woke 2 ms late: all generator delay.
        let l = lateness(1.0, 0.5, 1.002);
        assert!(l.queued == 0.0 && (l.generator - 0.002).abs() < 1e-12);
        // Both: queued behind a tick to 1.3, then sent at 1.31.
        let l = lateness(1.0, 1.3, 1.31);
        assert!((l.queued - 0.3).abs() < 1e-12 && (l.generator - 0.01).abs() < 1e-12);
        // A batch sent early never has negative delay.
        assert_eq!(
            lateness(1.0, 0.0, 0.9),
            Lateness {
                queued: 0.0,
                generator: 0.0
            }
        );
    }
}
