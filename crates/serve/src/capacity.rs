//! Admission control: the server's capacity model and typed decisions.
//!
//! The paper defers real-time delivery to the implementation; the
//! implementation's first defence is refusing work it cannot schedule. A
//! [`Capacity`] aggregates the server's storage bandwidth and decode
//! throughput; each `Open` request is checked against the demand the
//! session's schedule would add ([`tbm_player::demanded_rate`]). Three
//! outcomes, in preference order:
//!
//! 1. **admit** — the full-fidelity schedule fits the remaining headroom;
//! 2. **admit degraded** — it does not, but the base-layer schedule of a
//!    scalable stream does (§2.2: "bandwidth can be saved … by ignoring
//!    parts of the storage unit");
//! 3. **reject** — even the base layer would oversubscribe the server.
//!
//! [`AdmissionPolicy::AdmitAll`] disables the gate (every session admitted
//! at full fidelity) while keeping the same physical capacity — the
//! uncontrolled baseline the §serve experiment sweeps against.

use std::fmt;
use tbm_player::CostModel;
use tbm_time::Rational;

/// Whether the admission gate is enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Enforce the capacity model: degrade or reject infeasible sessions.
    Enforce,
    /// Admit every session at full fidelity regardless of capacity — the
    /// uncontrolled baseline. The physical service rate is unchanged, so
    /// oversubscription shows up as deadline misses instead of rejections.
    AdmitAll,
}

/// Aggregate delivery capacity of one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capacity {
    /// Aggregate storage/transfer bandwidth in bytes per second.
    pub storage_bandwidth: u64,
    /// Aggregate decode throughput in bytes per second (0 = free decoding).
    pub decode_rate: u64,
    /// Fixed per-element dispatch overhead in microseconds.
    pub overhead_us: u64,
    /// Whether admission control is enforced.
    pub policy: AdmissionPolicy,
}

impl Capacity {
    /// A capacity with the given storage bandwidth, free decoding, no
    /// overhead and admission enforced.
    pub fn new(storage_bandwidth: u64) -> Capacity {
        Capacity {
            storage_bandwidth: storage_bandwidth.max(1),
            decode_rate: 0,
            overhead_us: 0,
            policy: AdmissionPolicy::Enforce,
        }
    }

    /// Builder: sets aggregate decode throughput.
    pub fn with_decode_rate(mut self, bytes_per_sec: u64) -> Capacity {
        self.decode_rate = bytes_per_sec;
        self
    }

    /// Builder: sets fixed per-element overhead in microseconds.
    pub fn with_overhead_us(mut self, us: u64) -> Capacity {
        self.overhead_us = us;
        self
    }

    /// Builder: disables the admission gate (the uncontrolled baseline).
    pub fn admit_all(mut self) -> Capacity {
        self.policy = AdmissionPolicy::AdmitAll;
        self
    }

    /// The capacity admission prices against when the store reports
    /// `health_percent`% of its tiers healthy
    /// ([`tbm_blob::BlobStore::health_percent`]): storage bandwidth is
    /// derated proportionally,
    /// never below 1 B/s. A fully healthy store (100) leaves the capacity
    /// unchanged, so single-backend stores are unaffected.
    pub fn derated(&self, health_percent: u8) -> Capacity {
        let h = u64::from(health_percent.min(100));
        Capacity {
            storage_bandwidth: (self.storage_bandwidth.saturating_mul(h) / 100).max(1),
            ..*self
        }
    }

    /// The cost model the scheduler charges elements through — the same
    /// numbers admission reasons about.
    pub fn cost_model(&self) -> CostModel {
        CostModel::bandwidth_only(self.storage_bandwidth)
            .with_decode_rate(self.decode_rate)
            .with_overhead_us(self.overhead_us)
    }

    /// The admission check: whether a session fits next to the demand
    /// already admitted, stage by stage. The storage stage is charged
    /// `storage_demand` bytes/s on top of `storage_committed`, the decode
    /// stage `decode_demand` on top of `decode_committed`; each stage's
    /// total must stay within its rate (a decode rate of 0 is free). The
    /// server passes its one committed total and the session's demand to
    /// both stages, since bytes fetched are bytes decoded.
    pub fn fits_staged(
        &self,
        storage_committed: Rational,
        decode_committed: Rational,
        storage_demand: Rational,
        decode_demand: Rational,
    ) -> bool {
        if storage_committed + storage_demand > Rational::from(self.storage_bandwidth as i64) {
            return false;
        }
        self.decode_rate == 0
            || decode_committed + decode_demand <= Rational::from(self.decode_rate as i64)
    }

    /// The tighter of the two stage limits, in bytes per second.
    pub fn service_rate(&self) -> u64 {
        if self.decode_rate == 0 {
            self.storage_bandwidth
        } else {
            self.storage_bandwidth.min(self.decode_rate)
        }
    }
}

/// The typed outcome of an `Open` request's admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Admitted at full fidelity.
    Admitted,
    /// Admitted, but capped to the first `layers` placement layers of each
    /// element (the scalable base-layer path).
    Degraded {
        /// Placement layers the session may fetch per element.
        layers: usize,
    },
    /// Not admitted; no session was created.
    Rejected {
        /// Why the session was turned away.
        reason: RejectReason,
    },
}

impl AdmitDecision {
    /// `true` for [`AdmitDecision::Admitted`] and
    /// [`AdmitDecision::Degraded`].
    pub fn is_admitted(&self) -> bool {
        !matches!(self, AdmitDecision::Rejected { .. })
    }
}

impl fmt::Display for AdmitDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitDecision::Admitted => write!(f, "admitted"),
            AdmitDecision::Degraded { layers } => {
                write!(f, "admitted degraded ({layers}-layer)")
            }
            AdmitDecision::Rejected { reason } => write!(f, "rejected ({reason})"),
        }
    }
}

/// Why an `Open` request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Even the feasible fallback schedule would oversubscribe the server.
    Saturated {
        /// Bytes/s the session's cheapest feasible schedule demands.
        demanded_bps: u64,
        /// Bytes/s of headroom left under the tighter stage limit.
        available_bps: u64,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Saturated {
                demanded_bps,
                available_bps,
            } => write!(
                f,
                "saturated: demands {demanded_bps} B/s, {available_bps} B/s available"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_staged_reduces_to_fits_and_splits_stages() {
        let r = |n: i64| Rational::from(n);
        // Equal figures on both stages, as the server passes them: the
        // total must fit the tighter stage.
        let fits = |cap: Capacity, c: i64, d: i64| cap.fits_staged(r(c), r(c), r(d), r(d));
        let cap = Capacity::new(1_000_000).with_decode_rate(800_000);
        for (c, d, fit) in [
            (0, 400_000, true),
            (0, 900_000, false),
            (500_000, 400_000, false),
        ] {
            assert_eq!(fits(cap, c, d), fit, "{c} + {d}");
        }
        let tight_decode = Capacity::new(1_000_000).with_decode_rate(500_000);
        assert!(fits(tight_decode, 0, 400_000));
        assert!(
            !fits(tight_decode, 0, 600_000),
            "decode is the tighter stage here"
        );
        assert!(!fits(tight_decode, 400_000, 200_000));
        assert_eq!(tight_decode.service_rate(), 500_000);
        let free_decode = Capacity::new(1_000_000);
        assert!(fits(free_decode, 0, 900_000));
        assert!(!fits(free_decode, 500_000, 600_000));
        assert_eq!(free_decode.service_rate(), 1_000_000);
        // Unequal figures: each stage is checked against its own rate.
        assert!(cap.fits_staged(r(950_000), r(0), r(0), r(700_000)));
        assert!(!cap.fits_staged(r(950_000), r(200_000), r(0), r(700_000)));
        // Free decoding: only the storage stage exists.
        let free = Capacity::new(1_000_000);
        assert!(free.fits_staged(r(0), r(999_999_999), r(1_000_000), r(1)));
    }

    #[test]
    fn cost_model_mirrors_capacity() {
        let cap = Capacity::new(2_000_000)
            .with_decode_rate(8_000_000)
            .with_overhead_us(50);
        let m = cap.cost_model();
        assert_eq!(m.bandwidth, 2_000_000);
        assert_eq!(m.decode_rate, 8_000_000);
        assert_eq!(m.overhead_us, 50);
    }

    #[test]
    fn decisions_display() {
        assert_eq!(AdmitDecision::Admitted.to_string(), "admitted");
        assert!(AdmitDecision::Admitted.is_admitted());
        assert!(AdmitDecision::Degraded { layers: 1 }.is_admitted());
        let rejected = AdmitDecision::Rejected {
            reason: RejectReason::Saturated {
                demanded_bps: 300,
                available_bps: 200,
            },
        };
        assert!(!rejected.is_admitted());
        assert_eq!(
            rejected.to_string(),
            "rejected (saturated: demands 300 B/s, 200 B/s available)"
        );
    }

    #[test]
    fn zero_bandwidth_clamped() {
        assert_eq!(Capacity::new(0).storage_bandwidth, 1);
    }

    #[test]
    fn derating_scales_storage_bandwidth_only() {
        let cap = Capacity::new(1_000_000).with_decode_rate(500_000);
        let half = cap.derated(50);
        assert_eq!(half.storage_bandwidth, 500_000);
        assert_eq!(half.decode_rate, 500_000, "decode is not a tier resource");
        assert_eq!(cap.derated(100), cap, "healthy stores are unaffected");
        assert_eq!(Capacity::new(10).derated(0).storage_bandwidth, 1);
    }
}
