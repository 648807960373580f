//! Environmental IO fault injection.
//!
//! The engines get their faults from the TQS catalog; the harness's *own*
//! environment (corpus appends, checkpoint journal writes, WAL batches)
//! gets them from an [`EnvFaultPolicy`]: a seeded, deterministic decision
//! function over an operation counter that injects EIO-style failures into
//! writes, fsyncs and renames. Chaos tests use it to prove the persistence
//! layer degrades gracefully — every append atomic-or-absent, torn tails
//! repaired on resume, bug-class sets identical to a fault-free run.
//!
//! The decision sequence is a pure function of `(seed, ticket, op)`, where
//! the ticket is a process-wide monotonically increasing counter per policy.
//! One liveness rule is built in: the check immediately following an
//! injected failure always passes, so a single retry of a failed operation
//! is guaranteed to make progress (callers still retry more than once —
//! interleaved operations from other threads may consume the free pass).
//!
//! The default policy is inert: `should_fail` is a single `Option`
//! discriminant test, so production paths pay nothing.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The IO operations the policy can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvFaultOp {
    /// `write`/`write_all` — injected as an EIO after a *short write* (the
    /// caller-visible contract: some prefix of the payload may be on disk).
    Write,
    /// `fsync`/`sync_data` — data written but durability not established.
    Sync,
    /// `rename` — atomic-replace step of a compaction/tmp-file protocol.
    Rename,
}

impl EnvFaultOp {
    fn mix(self) -> u64 {
        match self {
            EnvFaultOp::Write => 0x57A1,
            EnvFaultOp::Sync => 0x5CC5,
            EnvFaultOp::Rename => 0xA3E1,
        }
    }

    fn error(self) -> io::Error {
        let msg = match self {
            EnvFaultOp::Write => "injected EIO (short write)",
            EnvFaultOp::Sync => "injected fsync failure",
            EnvFaultOp::Rename => "injected rename failure",
        };
        io::Error::other(msg)
    }
}

#[derive(Debug)]
struct PolicyInner {
    seed: u64,
    rate_pct: u64,
    tickets: AtomicU64,
    injected: AtomicU64,
    last_failed: AtomicBool,
}

/// Seeded, shareable environmental fault policy. Cloning shares the state,
/// so one policy handed to corpus, checkpoint and WAL draws tickets from a
/// single sequence and reports one combined `injected()` count.
#[derive(Debug, Clone, Default)]
pub struct EnvFaultPolicy {
    inner: Option<Arc<PolicyInner>>,
}

impl EnvFaultPolicy {
    /// The inert policy: never fails anything.
    pub fn off() -> Self {
        EnvFaultPolicy { inner: None }
    }

    /// A policy failing roughly `rate_pct`% of checked operations,
    /// deterministically from `seed`.
    pub fn seeded(seed: u64, rate_pct: u8) -> Self {
        EnvFaultPolicy {
            inner: Some(Arc::new(PolicyInner {
                seed,
                rate_pct: u64::from(rate_pct.min(100)),
                tickets: AtomicU64::new(0),
                injected: AtomicU64::new(0),
                last_failed: AtomicBool::new(false),
            })),
        }
    }

    /// Total failures injected so far (0 for the inert policy).
    pub fn injected(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.injected.load(Ordering::Relaxed))
    }

    /// Total operations checked so far (0 for the inert policy).
    #[cfg(test)]
    fn tickets(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.tickets.load(Ordering::Relaxed))
    }

    /// Decide whether the next `op` should fail. Returns the injected error
    /// to surface, or `None` to let the real operation proceed.
    pub fn should_fail(&self, op: EnvFaultOp) -> Option<io::Error> {
        let inner = self.inner.as_ref()?;
        let ticket = inner.tickets.fetch_add(1, Ordering::Relaxed);
        // Liveness: the check right after an injected failure always passes.
        if inner.last_failed.swap(false, Ordering::Relaxed) {
            return None;
        }
        let h = splitmix64(
            inner
                .seed
                .wrapping_add(ticket.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ op.mix(),
        );
        if h % 100 < inner.rate_pct {
            inner.last_failed.store(true, Ordering::Relaxed);
            inner.injected.fetch_add(1, Ordering::Relaxed);
            tqs_telemetry::counter!("pager.envfault.injected").incr();
            Some(op.error())
        } else {
            None
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_policy_never_fails() {
        let p = EnvFaultPolicy::off();
        for _ in 0..1000 {
            assert!(p.should_fail(EnvFaultOp::Write).is_none());
        }
        assert_eq!(p.injected(), 0);
        assert_eq!(p.tickets(), 0);
    }

    #[test]
    fn seeded_policy_is_deterministic() {
        let collect = |seed: u64| -> Vec<bool> {
            let p = EnvFaultPolicy::seeded(seed, 30);
            (0..200)
                .map(|_| p.should_fail(EnvFaultOp::Write).is_some())
                .collect()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn rate_is_roughly_honored_and_counted() {
        let p = EnvFaultPolicy::seeded(42, 30);
        let mut fails = 0u64;
        for _ in 0..1000 {
            if p.should_fail(EnvFaultOp::Sync).is_some() {
                fails += 1;
            }
        }
        assert_eq!(fails, p.injected());
        assert_eq!(p.tickets(), 1000);
        // 30% nominal, reduced by the no-two-consecutive liveness rule.
        assert!(fails > 100, "only {fails} failures at 30% rate");
        assert!(fails < 400, "{fails} failures at 30% rate");
    }

    #[test]
    fn never_two_consecutive_failures() {
        let p = EnvFaultPolicy::seeded(1, 100);
        let mut prev = false;
        for _ in 0..100 {
            let now = p.should_fail(EnvFaultOp::Rename).is_some();
            assert!(!(prev && now), "two consecutive injected failures");
            prev = now;
        }
        assert!(p.injected() > 0);
    }

    #[test]
    fn ops_carry_distinct_messages() {
        let p = EnvFaultPolicy::seeded(0, 100);
        let e = p.should_fail(EnvFaultOp::Write).unwrap();
        assert!(e.to_string().contains("short write"));
        p.should_fail(EnvFaultOp::Sync); // free pass consumed
        let e = p.should_fail(EnvFaultOp::Sync).unwrap();
        assert!(e.to_string().contains("fsync"));
    }

    #[test]
    fn clones_share_state() {
        let p = EnvFaultPolicy::seeded(5, 50);
        let q = p.clone();
        for _ in 0..50 {
            q.should_fail(EnvFaultOp::Write);
        }
        assert_eq!(p.tickets(), 50);
        assert_eq!(p.injected(), q.injected());
    }
}
