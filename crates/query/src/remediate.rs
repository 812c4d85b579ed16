//! The remediation plane: alerts become guarded, reversible fleet actions.
//!
//! A [`Remediator`] rides the telemetry tick next to the
//! [`HealthMonitor`]: when an armed [`SloRule`]'s alert opens (or stays
//! open past a cooldown), the [`Playbook`] entry for that rule fires a
//! typed [`Action`] against the live fleet — rebalance a hot shard, probe
//! and evacuate unhealthy nodes, derate admission and force active
//! sessions onto their base layer (the paper's Def. 6 rule, applied by the
//! system to itself), or grow the segment caches. Safety is the point:
//!
//! * **Budgets and cooldowns** — each entry holds a token bucket in
//!   simulated ticks; a dry bucket means the action is `suppressed`, never
//!   applied, and a counter proves it.
//! * **Verification and rollback** — every applied action records the burn
//!   rate at apply time and a rollback handle; after the entry's
//!   verification window the Remediator re-reads the rule's burn and rolls
//!   the action back (restore placement / derate / cache budget) if the
//!   SLO got *worse*.
//! * **Freeze switch** — N rollbacks within a window freeze the whole
//!   plane (a flapping guard); every later attempt is `suppressed` until
//!   an operator looks.
//! * **Determinism** — everything runs on integer ticks over the seeded
//!   fleet, so a same-seed storm produces a byte-identical
//!   [action log](Remediator::render_log) and incident reports.
//!
//! Every decision is observable: a [`Category::Remediation`] span per
//! attempted action (rule/action attrs at apply, the verdict at close),
//! `remediation.actions.{applied,rolled_back,suppressed,noop}` counters on
//! the fleet, and the action lines stamped into each closed incident's
//! [`IncidentReport`](crate::IncidentReport) timeline — a closed incident
//! reads "what broke → what the system did → whether it worked".

use std::fmt;

use tbm_blob::BlobStore;
use tbm_obs::{AttrValue, Category, SpanId};
use tbm_serve::{Fleet, ShardMove};
use tbm_time::TimePoint;

use crate::health::{AlertKind, AlertTransition, HealthMonitor};

/// A typed, reversible fleet action the playbook can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Migrate the hottest shard off the hottest node when cross-node
    /// load skew exceeds `min_skew_pct` ([`Fleet::rebalance_on_skew`]).
    /// Guarded no-op on single-node, balanced, or single-shard-hot
    /// fleets. Rollback: move the shard back.
    RebalanceShards {
        /// Skew floor below which the action refuses to churn placement.
        min_skew_pct: i64,
    },
    /// Probe tripped breakers and migrate shards off nodes that are down
    /// or breaker-open ([`Fleet::evacuate_unhealthy`]). Irreversible by
    /// design: shards are never rolled back onto a node that just failed
    /// (the restore-home path re-homes them when it heals).
    EvacuateNode,
    /// Set the fleet-wide admission derate to `percent` and force active
    /// full-fidelity sessions onto their base layer
    /// ([`Fleet::set_admission_derate`] + [`Fleet::force_degrade_all`]).
    /// Rollback: restore the previous derate and release the forced
    /// sessions.
    DerateAdmission {
        /// Percent of node capacity left to admission (100 = none).
        percent: u8,
    },
    /// Replace every shard's segment-cache budget with `bytes`
    /// ([`Fleet::set_cache_budget_all`]). Rollback: restore the previous
    /// budget.
    GrowCache {
        /// The new per-shard cache budget.
        bytes: u64,
    },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::RebalanceShards { min_skew_pct } => {
                write!(f, "rebalance-shards(min-skew {min_skew_pct}%)")
            }
            Action::EvacuateNode => f.write_str("evacuate-node"),
            Action::DerateAdmission { percent } => write!(f, "derate-admission({percent}%)"),
            Action::GrowCache { bytes } => write!(f, "grow-cache({bytes}B)"),
        }
    }
}

/// Why an attempt was suppressed instead of applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuppressReason {
    /// The entry's token bucket was dry.
    Budget,
    /// The global freeze switch is on (too many recent rollbacks).
    Frozen,
}

/// What happened when the playbook attempted an action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The action changed the fleet and entered its verification window.
    Applied,
    /// A guardrail held the attempt back before it touched the fleet.
    Suppressed(SuppressReason),
    /// The action's own guard found nothing to do (no token consumed).
    Noop,
}

/// The verification verdict an applied action resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The alert closed — the action (or time) fixed it.
    Improved,
    /// The alert is still open but burn did not worsen; the action stands.
    Held,
    /// Burn got worse; the action was reverted.
    RolledBack,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Held => "held",
            Verdict::RolledBack => "rolled back",
        }
    }
}

/// One line of the remediator's deterministic action log.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionRecord {
    /// The tick the attempt happened on.
    pub tick: u32,
    /// The simulated instant of the attempt.
    pub at: TimePoint,
    /// The rule whose alert drove the attempt.
    pub rule: String,
    /// The action attempted.
    pub action: Action,
    /// What happened at attempt time.
    pub outcome: Outcome,
    /// The verification verdict, once resolved (`Applied` only).
    pub verdict: Option<Verdict>,
    /// Deterministic human detail (what moved, what was derated, the burn
    /// at apply).
    pub detail: String,
}

impl ActionRecord {
    /// The record as one deterministic log line.
    pub fn render(&self) -> String {
        let mut out = format!("tick {:>4} [{}] {}", self.tick, self.rule, self.action);
        match self.outcome {
            Outcome::Applied => {
                out.push_str(" applied");
                if !self.detail.is_empty() {
                    out.push_str(&format!(": {}", self.detail));
                }
            }
            Outcome::Suppressed(SuppressReason::Budget) => out.push_str(" suppressed (budget)"),
            Outcome::Suppressed(SuppressReason::Frozen) => out.push_str(" suppressed (frozen)"),
            Outcome::Noop => out.push_str(" no-op (guard held)"),
        }
        if let Some(v) = self.verdict {
            out.push_str(&format!(" → {}", v.as_str()));
        }
        out
    }
}

/// One playbook row: when `rule`'s alert is open, fire `action` under this
/// entry's budget, cooldown, and verification window.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaybookEntry {
    /// The [`SloRule`](crate::SloRule) name that triggers this entry.
    pub rule: String,
    /// The action to fire.
    pub action: Action,
    /// Token-bucket capacity: how many applies the entry may burst.
    pub budget: u32,
    /// Ticks per regained token (0 = never refills).
    pub refill_ticks: u32,
    /// Minimum ticks between attempts while the alert stays open.
    pub cooldown_ticks: u32,
    /// Ticks after an apply before the verification pass judges it.
    pub verify_ticks: u32,
}

/// An ordered list of [`PlaybookEntry`]s — the fleet's remediation policy.
/// Multiple entries may share a rule (an escalation ladder: the first
/// fires on open, the rest as the alert persists past their cooldowns).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Playbook {
    entries: Vec<PlaybookEntry>,
}

impl Playbook {
    /// An empty playbook.
    pub fn new() -> Playbook {
        Playbook::default()
    }

    /// Builder: appends an entry with the default guardrails (budget 4,
    /// refill every 60 ticks, cooldown 8 ticks, verify after 6 ticks).
    pub fn on(mut self, rule: impl Into<String>, action: Action) -> Playbook {
        self.entries.push(PlaybookEntry {
            rule: rule.into(),
            action,
            budget: 4,
            refill_ticks: 60,
            cooldown_ticks: 8,
            verify_ticks: 6,
        });
        self
    }

    /// Builder: sets the last entry's token-bucket capacity.
    ///
    /// # Panics
    /// When the playbook is empty or `budget` is zero.
    pub fn budget(mut self, budget: u32) -> Playbook {
        assert!(budget >= 1, "a zero budget entry could never fire");
        self.last().budget = budget;
        self
    }

    /// Builder: sets the last entry's token refill period in ticks
    /// (0 = the budget never refills).
    ///
    /// # Panics
    /// When the playbook is empty.
    pub fn refill(mut self, ticks: u32) -> Playbook {
        self.last().refill_ticks = ticks;
        self
    }

    /// Builder: sets the last entry's attempt cooldown in ticks.
    ///
    /// # Panics
    /// When the playbook is empty.
    pub fn cooldown(mut self, ticks: u32) -> Playbook {
        self.last().cooldown_ticks = ticks;
        self
    }

    /// Builder: sets the last entry's verification window in ticks.
    ///
    /// # Panics
    /// When the playbook is empty or `ticks` is zero (an action must get
    /// at least one tick to act before being judged).
    pub fn verify(mut self, ticks: u32) -> Playbook {
        assert!(ticks >= 1, "a verification window needs at least one tick");
        self.last().verify_ticks = ticks;
        self
    }

    fn last(&mut self) -> &mut PlaybookEntry {
        self.entries
            .last_mut()
            .expect("builder methods tune the most recent `on` entry")
    }

    /// The entries, in firing order.
    pub fn entries(&self) -> &[PlaybookEntry] {
        &self.entries
    }

    /// The default policy for the built-in rules: rebalance on
    /// `load-skew`; probe/evacuate then derate-and-degrade on
    /// `lateness-p99-full` (the escalation ladder); derate-and-degrade on
    /// `drop-rate`; grow the caches on `cache-hit`.
    pub fn default_rules() -> Playbook {
        Playbook::new()
            .on("load-skew", Action::RebalanceShards { min_skew_pct: 50 })
            .on("lateness-p99-full", Action::EvacuateNode)
            .on("lateness-p99-full", Action::DerateAdmission { percent: 70 })
            .cooldown(12)
            .on("drop-rate", Action::DerateAdmission { percent: 70 })
            .on("cache-hit", Action::GrowCache { bytes: 64 << 20 })
            .budget(2)
    }
}

/// The rollback handle an applied action leaves behind.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Rollback {
    /// Move the shard back where it came from.
    Placement(ShardMove),
    /// Restore the previous admission derate and release forced sessions.
    Derate { prev: u8 },
    /// Restore the previous cache budget.
    Cache { prev: u64 },
    /// Irreversible by design (evacuation).
    None,
}

/// An applied action waiting for its verification tick.
#[derive(Debug, Clone)]
struct Inflight {
    record: usize,
    verify_at_tick: u32,
    burn_at_apply: f64,
    rollback: Rollback,
    span: SpanId,
}

/// Per-entry runtime state: the token bucket and the in-flight action.
#[derive(Debug, Clone)]
struct EntryState {
    tokens: u32,
    last_refill_tick: u32,
    last_attempt_tick: Option<u32>,
    inflight: Option<Inflight>,
}

const M_APPLIED: &str = "remediation.actions.applied";
const M_ROLLED_BACK: &str = "remediation.actions.rolled_back";
const M_SUPPRESSED: &str = "remediation.actions.suppressed";
const M_NOOP: &str = "remediation.actions.noop";

/// The guarded auto-remediation engine. Construct with a [`Playbook`],
/// attach to the sampler via
/// [`FleetTelemetry::with_remediator`](crate::FleetTelemetry::with_remediator),
/// and read the [action log](Remediator::render_log) afterwards.
#[derive(Debug, Clone)]
pub struct Remediator {
    playbook: Playbook,
    states: Vec<EntryState>,
    records: Vec<ActionRecord>,
    freeze_threshold: u32,
    freeze_window_ticks: u32,
    rollback_ticks: Vec<u32>,
    frozen_at_tick: Option<u32>,
}

impl Remediator {
    /// A remediator running `playbook`, with the freeze switch armed at 3
    /// rollbacks within 120 ticks.
    pub fn new(playbook: Playbook) -> Remediator {
        let states = playbook
            .entries
            .iter()
            .map(|e| EntryState {
                tokens: e.budget,
                last_refill_tick: 0,
                last_attempt_tick: None,
                inflight: None,
            })
            .collect();
        Remediator {
            playbook,
            states,
            records: Vec::new(),
            freeze_threshold: 3,
            freeze_window_ticks: 120,
            rollback_ticks: Vec::new(),
            frozen_at_tick: None,
        }
    }

    /// Builder: freeze the whole plane after `rollbacks` rollbacks within
    /// `window_ticks` ticks.
    ///
    /// # Panics
    /// When `rollbacks` is zero.
    pub fn freeze_after(mut self, rollbacks: u32, window_ticks: u32) -> Remediator {
        assert!(rollbacks >= 1, "a zero freeze threshold is always frozen");
        self.freeze_threshold = rollbacks;
        self.freeze_window_ticks = window_ticks;
        self
    }

    /// The playbook driving this remediator.
    pub fn playbook(&self) -> &Playbook {
        &self.playbook
    }

    /// Whether the freeze switch has tripped (operator attention needed;
    /// it never auto-clears within a run).
    pub fn frozen(&self) -> bool {
        self.frozen_at_tick.is_some()
    }

    /// Every attempt so far, in decision order.
    pub fn records(&self) -> &[ActionRecord] {
        &self.records
    }

    /// The whole action log as deterministic text, one line per attempt —
    /// byte-identical across same-seed runs.
    pub fn render_log(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.render());
            out.push('\n');
        }
        if let Some(t) = self.frozen_at_tick {
            out.push_str(&format!(
                "frozen at tick {t} ({} rollbacks within {} ticks)\n",
                self.freeze_threshold, self.freeze_window_ticks
            ));
        }
        out
    }

    /// Rendered lines for every attempt against `rule` between
    /// `opened_tick` and `closed_tick` inclusive — what gets stamped into
    /// that incident's report timeline.
    pub fn actions_for(&self, rule: &str, opened_tick: u32, closed_tick: u32) -> Vec<String> {
        self.records
            .iter()
            .filter(|r| r.rule == rule && r.tick >= opened_tick && r.tick <= closed_tick)
            .map(ActionRecord::render)
            .collect()
    }

    /// One remediation pass at `tick`/`at`, after the monitor has observed
    /// the tick's samples: refill token buckets, verify due in-flight
    /// actions (rolling back the ones that made burn worse), then attempt
    /// the playbook entries whose alert is open and cooldown has elapsed.
    pub fn on_tick<S: BlobStore>(
        &mut self,
        fleet: &mut Fleet<S>,
        monitor: &HealthMonitor,
        transitions: &[AlertTransition],
        tick: u32,
        at: TimePoint,
    ) {
        let tracer = fleet.tracer().clone();
        // 1. Refill: one token per elapsed refill period, capped at the
        // budget (integer arithmetic — no drift, no float state).
        for (entry, st) in self.playbook.entries.iter().zip(&mut self.states) {
            if entry.refill_ticks == 0 || st.tokens >= entry.budget {
                st.last_refill_tick = tick;
                continue;
            }
            let gained = (tick - st.last_refill_tick) / entry.refill_ticks;
            if gained > 0 {
                st.tokens = (st.tokens + gained).min(entry.budget);
                st.last_refill_tick += gained * entry.refill_ticks;
            }
        }

        // 2. Verify due in-flight actions. An action resolves early (as
        // `improved`) the moment its alert closes; otherwise it waits for
        // its verification tick and is judged on the burn delta.
        for i in 0..self.playbook.entries.len() {
            let rule = self.playbook.entries[i].rule.clone();
            let Some(inflight) = self.states[i].inflight.clone() else {
                continue;
            };
            let closed = !monitor.is_open(&rule)
                || transitions
                    .iter()
                    .any(|t| t.rule == rule && t.kind == AlertKind::Closed);
            if !closed && tick < inflight.verify_at_tick {
                continue;
            }
            let burn_now = monitor
                .burns(&rule)
                .map_or(0.0, |(fast, slow)| fast.max(slow));
            let verdict = if closed {
                Verdict::Improved
            } else if burn_now > inflight.burn_at_apply && inflight.rollback != Rollback::None {
                self.apply_rollback(fleet, &inflight.rollback, at);
                fleet.inc_metric(M_ROLLED_BACK, 1);
                self.rollback_ticks.push(tick);
                Verdict::RolledBack
            } else {
                Verdict::Held
            };
            self.records[inflight.record].verdict = Some(verdict);
            tracer.end_span_with(inflight.span, at, |a| {
                a.put("verdict", AttrValue::Text(verdict.as_str().to_string()));
                a.put(
                    "burn_at_verify_milli",
                    AttrValue::U64((burn_now * 1000.0).round() as u64),
                );
            });
            self.states[i].inflight = None;

            // Flapping guard: too many rollbacks inside the window freeze
            // the plane for the rest of the run.
            if verdict == Verdict::RolledBack && self.frozen_at_tick.is_none() {
                let window_start = tick.saturating_sub(self.freeze_window_ticks);
                let recent = self
                    .rollback_ticks
                    .iter()
                    .filter(|&&t| t >= window_start)
                    .count() as u32;
                if recent >= self.freeze_threshold {
                    self.frozen_at_tick = Some(tick);
                    tracer.event(
                        "remediation.freeze",
                        Category::Remediation,
                        at,
                        SpanId::NONE,
                        None,
                        vec![
                            ("tick", u64::from(tick).into()),
                            ("rollbacks", u64::from(recent).into()),
                        ],
                    );
                }
            }
        }

        // 3. Attempt entries whose alert is open, in playbook order. One
        // in-flight action per entry; cooldown between attempts.
        for i in 0..self.playbook.entries.len() {
            let entry = self.playbook.entries[i].clone();
            if self.states[i].inflight.is_some() || !monitor.is_open(&entry.rule) {
                continue;
            }
            if let Some(last) = self.states[i].last_attempt_tick {
                if tick - last < entry.cooldown_ticks {
                    continue;
                }
            }
            self.states[i].last_attempt_tick = Some(tick);
            if self.frozen_at_tick.is_some() {
                fleet.inc_metric(M_SUPPRESSED, 1);
                self.push_record(
                    tick,
                    at,
                    &entry,
                    Outcome::Suppressed(SuppressReason::Frozen),
                );
                continue;
            }
            if self.states[i].tokens == 0 {
                fleet.inc_metric(M_SUPPRESSED, 1);
                self.push_record(
                    tick,
                    at,
                    &entry,
                    Outcome::Suppressed(SuppressReason::Budget),
                );
                continue;
            }
            let span = tracer.begin_span_with(
                "remediation",
                Category::Remediation,
                at,
                SpanId::NONE,
                None,
                |a| {
                    a.put("rule", AttrValue::Text(entry.rule.clone()));
                    a.put("action", AttrValue::Text(entry.action.to_string()));
                },
            );
            match self.apply_action(fleet, &entry.action, at) {
                None => {
                    // The action's own guard held — no token consumed.
                    fleet.inc_metric(M_NOOP, 1);
                    tracer.end_span_with(span, at, |a| {
                        a.put("verdict", AttrValue::Text("noop".to_string()))
                    });
                    self.push_record(tick, at, &entry, Outcome::Noop);
                }
                Some((detail, rollback)) => {
                    self.states[i].tokens -= 1;
                    fleet.inc_metric(M_APPLIED, 1);
                    let burn_at_apply = monitor
                        .burns(&entry.rule)
                        .map_or(0.0, |(fast, slow)| fast.max(slow));
                    let record = self.records.len();
                    self.records.push(ActionRecord {
                        tick,
                        at,
                        rule: entry.rule.clone(),
                        action: entry.action,
                        outcome: Outcome::Applied,
                        verdict: None,
                        detail,
                    });
                    self.states[i].inflight = Some(Inflight {
                        record,
                        verify_at_tick: tick + entry.verify_ticks,
                        burn_at_apply,
                        rollback,
                        span,
                    });
                }
            }
        }
    }

    fn push_record(&mut self, tick: u32, at: TimePoint, entry: &PlaybookEntry, outcome: Outcome) {
        self.records.push(ActionRecord {
            tick,
            at,
            rule: entry.rule.clone(),
            action: entry.action,
            outcome,
            verdict: None,
            detail: String::new(),
        });
    }

    /// Applies `action`; `None` means the action's own guard found nothing
    /// to do, `Some((detail, rollback))` that the fleet changed.
    fn apply_action<S: BlobStore>(
        &mut self,
        fleet: &mut Fleet<S>,
        action: &Action,
        at: TimePoint,
    ) -> Option<(String, Rollback)> {
        match *action {
            Action::RebalanceShards { min_skew_pct } => {
                let mv = fleet.rebalance_on_skew(at, min_skew_pct)?;
                Some((format!("moved {mv}"), Rollback::Placement(mv)))
            }
            Action::EvacuateNode => {
                let moves = fleet.evacuate_unhealthy(at);
                if moves.is_empty() {
                    return None;
                }
                let detail = moves
                    .iter()
                    .map(|m| m.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                Some((format!("evacuated {detail}"), Rollback::None))
            }
            Action::DerateAdmission { percent } => {
                let prev = fleet.set_admission_derate(percent);
                if prev == percent.clamp(1, 100) {
                    return None;
                }
                let forced = fleet.force_degrade_all(at);
                Some((
                    format!("derated {prev}%→{percent}%, forced {forced} sessions to base layer"),
                    Rollback::Derate { prev },
                ))
            }
            Action::GrowCache { bytes } => {
                let prev = fleet.set_cache_budget_all(bytes);
                if prev == bytes {
                    return None;
                }
                Some((
                    format!("cache budget {prev}B→{bytes}B"),
                    Rollback::Cache { prev },
                ))
            }
        }
    }

    fn apply_rollback<S: BlobStore>(
        &mut self,
        fleet: &mut Fleet<S>,
        rollback: &Rollback,
        at: TimePoint,
    ) {
        match *rollback {
            Rollback::Placement(mv) => {
                fleet.move_shard(mv.shard, mv.from, at, "rollback");
            }
            Rollback::Derate { prev } => {
                fleet.set_admission_derate(prev);
                fleet.release_degrade_all(at);
            }
            Rollback::Cache { prev } => {
                fleet.set_cache_budget_all(prev);
            }
            Rollback::None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn playbook_builders_tune_the_last_entry() {
        let pb = Playbook::new()
            .on("a", Action::EvacuateNode)
            .on("b", Action::GrowCache { bytes: 1 })
            .budget(7)
            .refill(30)
            .cooldown(2)
            .verify(9);
        assert_eq!(pb.entries()[0].budget, 4, "defaults untouched");
        let b = &pb.entries()[1];
        assert_eq!(
            (b.budget, b.refill_ticks, b.cooldown_ticks, b.verify_ticks),
            (7, 30, 2, 9)
        );
    }

    #[test]
    fn default_playbook_covers_the_builtin_rules() {
        let pb = Playbook::default_rules();
        let rules: Vec<&str> = pb.entries().iter().map(|e| e.rule.as_str()).collect();
        for rule in ["load-skew", "lateness-p99-full", "drop-rate", "cache-hit"] {
            assert!(rules.contains(&rule), "{rule} uncovered");
        }
        // The lateness ladder escalates: evacuate first, derate later.
        let lateness: Vec<&PlaybookEntry> = pb
            .entries()
            .iter()
            .filter(|e| e.rule == "lateness-p99-full")
            .collect();
        assert_eq!(lateness.len(), 2);
        assert_eq!(lateness[0].action, Action::EvacuateNode);
        assert!(matches!(lateness[1].action, Action::DerateAdmission { .. }));
    }

    #[test]
    fn action_records_render_deterministically() {
        let r = ActionRecord {
            tick: 12,
            at: TimePoint::ZERO,
            rule: "load-skew".to_string(),
            action: Action::RebalanceShards { min_skew_pct: 50 },
            outcome: Outcome::Applied,
            verdict: Some(Verdict::RolledBack),
            detail: "moved shard2 node0→node1".to_string(),
        };
        assert_eq!(
            r.render(),
            "tick   12 [load-skew] rebalance-shards(min-skew 50%) applied: moved shard2 node0→node1 → rolled back"
        );
        let s = ActionRecord {
            outcome: Outcome::Suppressed(SuppressReason::Budget),
            verdict: None,
            detail: String::new(),
            ..r
        };
        assert_eq!(
            s.render(),
            "tick   12 [load-skew] rebalance-shards(min-skew 50%) suppressed (budget)"
        );
    }
}
