//! Deterministic fault injection for the durability and shard-tick
//! paths.
//!
//! Chaos testing is only useful when a failure reproduces: a fault plan
//! is a **pure function of its seed and the fault site** — the same plan
//! injects the same faults at the same operations on every run,
//! regardless of thread interleaving. Sites are keyed per session by
//! per-session operation indices (append #k on session s, converge
//! attempt #k on session s), which are themselves deterministic, so a
//! whole chaos run is reproducible from `CROWD_FAULT_SEED` alone.
//!
//! The plan is threaded through WAL appends, snapshot writes, and the
//! shard drain's converge attempts. The default [`FaultPlan::none`] has
//! zero cost on every path (a `None` check).

use std::sync::Arc;

/// Where a fault can be injected. Sites are keyed by the owning
/// session's raw id (creation order, stable across recovery) and a
/// per-session operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The `index`-th WAL frame append for `session` (the header frame
    /// is index 0, the first batch frame index 1, …; converge frames
    /// count too).
    WalAppend {
        /// Raw session id.
        session: u64,
        /// Per-session append index.
        index: u64,
    },
    /// The `index`-th snapshot write for `session`.
    Snapshot {
        /// Raw session id.
        session: u64,
        /// Per-session snapshot index.
        index: u64,
    },
    /// The `index`-th drain-tick converge attempt for `session`
    /// (panicked attempts count, so a restarted session's next attempt
    /// has a fresh index and a scheduled fault does not re-fire).
    Converge {
        /// Raw session id.
        session: u64,
        /// Per-session converge-attempt index.
        index: u64,
    },
}

impl FaultSite {
    fn kind_tag(&self) -> u64 {
        match self {
            Self::WalAppend { .. } => 0x57414c,  // "WAL"
            Self::Snapshot { .. } => 0x534e4150, // "SNAP"
            Self::Converge { .. } => 0x434f4e56, // "CONV"
        }
    }

    fn key(&self) -> (u64, u64) {
        match *self {
            Self::WalAppend { session, index }
            | Self::Snapshot { session, index }
            | Self::Converge { session, index } => (session, index),
        }
    }
}

/// What to inject at a matched site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The I/O operation fails cleanly (typed error, nothing written).
    /// Meaningless for [`FaultSite::Converge`] (treated as
    /// [`FaultKind::Panic`]).
    Error,
    /// The write is torn: a deterministic strict prefix of the bytes
    /// lands, then the operation errors — simulating a crash mid-write.
    /// Meaningless for converge sites (treated as panic).
    Torn,
    /// The operation panics (only meaningful for converge sites, where
    /// the drain's `catch_unwind` turns it into session poisoning; I/O
    /// sites treat it as [`FaultKind::Error`]).
    Panic,
}

#[derive(Debug, Default)]
struct PlanInner {
    seed: u64,
    /// Probability of a clean write error per WAL append.
    wal_error_rate: f64,
    /// Probability of a torn write per WAL append.
    wal_torn_rate: f64,
    /// Probability of a clean write error per snapshot write.
    snapshot_error_rate: f64,
    /// Probability of a panic per converge attempt.
    converge_panic_rate: f64,
    /// Exact-site overrides, checked before the rates.
    scheduled: Vec<(FaultSite, FaultKind)>,
}

/// A deterministic, seeded plan of injected faults (see the module docs).
/// Cloning is cheap (shared immutable state); [`FaultPlan::none`] is the
/// no-fault default every production configuration uses.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<PlanInner>>,
}

impl FaultPlan {
    /// The no-fault plan (default).
    pub fn none() -> Self {
        Self { inner: None }
    }

    /// Start building a seeded plan. Without any rates or scheduled
    /// faults the plan still injects nothing.
    pub fn seeded(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            inner: PlanInner {
                seed,
                ..PlanInner::default()
            },
        }
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// The fault to inject at `site`, if any. Pure: the same plan and
    /// site always produce the same decision.
    pub fn decide(&self, site: FaultSite) -> Option<FaultKind> {
        let inner = self.inner.as_ref()?;
        if let Some((_, kind)) = inner.scheduled.iter().find(|(s, _)| *s == site) {
            return Some(*kind);
        }
        let (session, index) = site.key();
        let h = splitmix64(
            inner
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(site.kind_tag())
                .wrapping_add(session.wrapping_mul(0x1000_0000_01b3))
                .wrapping_add(index),
        );
        // Uniform in [0, 1) from the top 53 bits.
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        match site {
            FaultSite::WalAppend { .. } => {
                if u < inner.wal_error_rate {
                    Some(FaultKind::Error)
                } else if u < inner.wal_error_rate + inner.wal_torn_rate {
                    Some(FaultKind::Torn)
                } else {
                    None
                }
            }
            FaultSite::Snapshot { .. } => {
                (u < inner.snapshot_error_rate).then_some(FaultKind::Error)
            }
            FaultSite::Converge { .. } => {
                (u < inner.converge_panic_rate).then_some(FaultKind::Panic)
            }
        }
    }

    /// How many bytes of an `len`-byte write a torn fault at `site`
    /// keeps: a deterministic strict prefix (at least 1 byte short, so a
    /// torn frame is always detectable).
    pub fn torn_keep(&self, site: FaultSite, len: usize) -> usize {
        let Some(inner) = self.inner.as_ref() else {
            return len;
        };
        if len == 0 {
            return 0;
        }
        let (session, index) = site.key();
        let h = splitmix64(inner.seed ^ 0x746f_726e ^ session.rotate_left(17) ^ index);
        (h as usize) % len
    }
}

/// Builder for [`FaultPlan`]. All rates are clamped to `[0, 1]`.
#[derive(Debug)]
pub struct FaultPlanBuilder {
    inner: PlanInner,
}

impl FaultPlanBuilder {
    /// Inject clean write errors on this fraction of WAL appends.
    pub fn wal_error_rate(mut self, rate: f64) -> Self {
        self.inner.wal_error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Inject torn writes on this fraction of WAL appends.
    pub fn wal_torn_rate(mut self, rate: f64) -> Self {
        self.inner.wal_torn_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Inject clean write errors on this fraction of snapshot writes.
    pub fn snapshot_error_rate(mut self, rate: f64) -> Self {
        self.inner.snapshot_error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Inject panics on this fraction of drain-tick converge attempts.
    pub fn converge_panic_rate(mut self, rate: f64) -> Self {
        self.inner.converge_panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Schedule an exact fault at one site (checked before the rates).
    pub fn schedule(mut self, site: FaultSite, kind: FaultKind) -> Self {
        self.inner.scheduled.push((site, kind));
        self
    }

    /// Finish the plan.
    pub fn build(self) -> FaultPlan {
        FaultPlan {
            inner: Some(Arc::new(self.inner)),
        }
    }
}

/// SplitMix64 — the same tiny deterministic mixer the sweep-path seeding
/// uses; good avalanche, no state.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for i in 0..100 {
            assert_eq!(
                plan.decide(FaultSite::WalAppend {
                    session: 0,
                    index: i
                }),
                None
            );
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_site() {
        let a = FaultPlan::seeded(42)
            .wal_error_rate(0.3)
            .wal_torn_rate(0.2)
            .converge_panic_rate(0.25)
            .build();
        let b = FaultPlan::seeded(42)
            .wal_error_rate(0.3)
            .wal_torn_rate(0.2)
            .converge_panic_rate(0.25)
            .build();
        let c = FaultPlan::seeded(43)
            .wal_error_rate(0.3)
            .wal_torn_rate(0.2)
            .converge_panic_rate(0.25)
            .build();
        let mut differs = false;
        for s in 0..4u64 {
            for i in 0..64u64 {
                for site in [
                    FaultSite::WalAppend {
                        session: s,
                        index: i,
                    },
                    FaultSite::Converge {
                        session: s,
                        index: i,
                    },
                ] {
                    assert_eq!(a.decide(site), b.decide(site), "same seed, same site");
                    differs |= a.decide(site) != c.decide(site);
                }
            }
        }
        assert!(differs, "different seeds should differ somewhere");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::seeded(7).wal_error_rate(0.25).build();
        let fired = (0..4000u64)
            .filter(|&i| {
                plan.decide(FaultSite::WalAppend {
                    session: i / 64,
                    index: i % 64,
                })
                .is_some()
            })
            .count();
        let rate = fired as f64 / 4000.0;
        assert!((0.18..0.32).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn scheduled_sites_override_rates() {
        let site = FaultSite::Converge {
            session: 3,
            index: 1,
        };
        let plan = FaultPlan::seeded(1)
            .schedule(site, FaultKind::Panic)
            .build();
        assert_eq!(plan.decide(site), Some(FaultKind::Panic));
        assert_eq!(
            plan.decide(FaultSite::Converge {
                session: 3,
                index: 2
            }),
            None
        );
    }

    #[test]
    fn torn_keep_is_a_strict_prefix() {
        let plan = FaultPlan::seeded(5).wal_torn_rate(1.0).build();
        for len in 1..200usize {
            let keep = plan.torn_keep(
                FaultSite::WalAppend {
                    session: 1,
                    index: len as u64,
                },
                len,
            );
            assert!(keep < len, "torn write must lose at least one byte");
        }
    }
}
