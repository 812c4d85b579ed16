//! A simulated multi-node fleet: shard placement, live migration, lossy
//! transport and node fault injection over the sharded serving engine.
//!
//! [`crate::ShardedServer`] rehearses the multi-machine layout in one
//! process but keeps three fictions: requests reach shards for free, nodes
//! never die, and placement never changes. [`Fleet`] drops all three:
//!
//! * **Nodes and placement.** A [`Fleet`] hosts its shards on simulated
//!   [`Node`]s behind a [`PlacementService`] that owns the shard→node map.
//!   Every shard keeps its own [`Server`] (and so its sessions, cache and
//!   stats) for its whole life — *placement* is what moves, which is
//!   exactly how the catalog-handoff guarantee is kept: a `Play` issued
//!   before a migration completes after it, on the same engine state, with
//!   exact stats rollup preserved.
//! * **Transport.** Every request crosses the hosting node's [`Link`]:
//!   it pays bandwidth + propagation + seeded jitter, and can be lost to a
//!   seeded coin or a scripted partition window. Lost sends are retried on
//!   the storage layer's [`RetryPolicy`] schedule; requests that exhaust
//!   it fail with [`FleetError::Unreachable`].
//! * **Node faults.** A [`NodeFaultPlan`] scripts crashes,
//!   restarts-with-salvage and brownout windows. Unscripted unreachability
//!   (loss storms, partitions) trips a per-node [`Breaker`] — the one
//!   `TieredBlobStore` runs per tier — and a deterministic ping probes
//!   half-open nodes back to life.
//!
//! **Live migration.** Two triggers move a shard on their own: its node
//! crashed (the shards re-place onto survivors) or its node's breaker
//! tripped (same). Rebalancing on load skew is the remediation plane's
//! lever ([`Fleet::rebalance_on_skew`]), pulled only when a playbook is
//! attached. A migration charges a *catalog handoff*: object metadata
//! plus the shard's BLOB payload transfer over the target's link
//! (metadata only when the target holds a salvaged copy from an earlier
//! stay). The shard's channel is stalled until the handoff completes, and
//! the stall is attributed to the `node-loss` miss cause — so surviving a
//! node failure is visible in the attribution partition instead of
//! polluting admission over-commit. When a crashed node restarts, its
//! home shards migrate back (salvage makes that cheap) and
//! capacity-degraded sessions are upgraded back to full fidelity.
//!
//! With migration disabled ([`Fleet::with_migration`]`(false)`) a crashed
//! node takes its shards' open sessions down with it
//! ([`Server::shed_pending`]) — the no-migration baseline the §fleet
//! experiment holds the migrating fleet against.
//!
//! Determinism carries over wholesale: links draw jitter and loss as
//! splitmix64 of a seed and a draw counter, fault plans are scripted on
//! the simulated clock, and scheduling stays exact-rational — same seed,
//! byte-identical stats, metrics and traces.

use crate::{
    shard_of, Capacity, Request, Response, ServeError, Server, Session, ShardedDb, ShardedServer,
    ShardedStats,
};
use std::collections::BTreeSet;
use std::fmt;
use std::io;
use tbm_blob::{BlobStore, Breaker, BreakerState, MemBlobStore, RetryPolicy, RetryReport};
use tbm_core::{splitmix64, SessionId};
use tbm_obs::{
    attribute, chrome_trace_to_writer, AttributionReport, Category, MetricsRegistry, SpanId,
    TraceSnapshot, Tracer,
};
use tbm_time::{TimeDelta, TimePoint};

// Fleet-level registry names. `fleet.*` counters ride next to the serve
// rollup in [`Fleet::metrics`]; the gauges are recomputed per snapshot.
const M_MIGRATIONS: &str = "fleet.migrations";
const M_HANDOFF_BYTES: &str = "fleet.handoff.bytes";
const M_SENT: &str = "fleet.transport.sent";
const M_LOST: &str = "fleet.transport.lost";
const M_XFER_BYTES: &str = "fleet.transport.oob_bytes";
const M_RETRIED: &str = "fleet.transport.retried";
const M_CRASHES: &str = "fleet.node.crashes";
const M_RESTARTS: &str = "fleet.node.restarts";
const M_TRIPS: &str = "fleet.node.breaker_trips";
const M_SHED: &str = "fleet.elements.shed";
const G_NODES: &str = "fleet.nodes";
const G_NODES_UP: &str = "fleet.nodes.up";
const G_FLEET_SKEW: &str = "fleet.skew";

/// Assumed catalog-metadata bytes per object in a migration handoff.
const METADATA_BYTES_PER_OBJECT: u64 = 512;
/// Request-plane message size charged against a link per delivery attempt.
const REQUEST_BYTES: u64 = 256;
/// Lost deliveries are retried on the storage [`RetryPolicy`] schedule:
/// four attempts in all, doubling backoff from 200 µs, a 50 ms budget.
const TRANSPORT_RETRY: RetryPolicy = RetryPolicy::new(3);
/// A node's breaker trips after this many consecutive lost deliveries ...
const BREAKER_THRESHOLD: u32 = 2;
/// ... and lets a half-open probe through after this cooldown.
const BREAKER_COOLDOWN_MS: i64 = 200;
/// Crash-detection delay charged on top of a failover handoff.
const DETECTION_US: u64 = 50_000;

/// A simulated network link onto one node: bandwidth, propagation delay,
/// seeded jitter, a seeded loss coin and scripted partition windows.
///
/// Delay and loss are pure functions of `(seed, draw counter)` — a link
/// replays byte-identically — and every delivery draws exactly once, so
/// the stream stays aligned across runs.
#[derive(Debug, Clone)]
pub struct Link {
    /// Payload bandwidth in bytes per second.
    pub bandwidth: u64,
    /// One-way propagation delay in microseconds.
    pub propagation_us: u64,
    /// Upper bound on seeded per-delivery jitter, in microseconds.
    pub jitter_us: u64,
    /// Per-delivery loss probability in `[0, 1)`.
    pub loss: f64,
    /// Scripted `[from, to)` windows in which every delivery is lost.
    partitions: Vec<(TimePoint, TimePoint)>,
    seed: u64,
    draws: u64,
}

impl Link {
    /// A link with the given payload bandwidth, 200 µs propagation, no
    /// jitter, no loss and no partitions.
    pub fn new(bandwidth: u64) -> Link {
        Link {
            bandwidth: bandwidth.max(1),
            propagation_us: 200,
            jitter_us: 0,
            loss: 0.0,
            partitions: Vec::new(),
            seed: 0,
            draws: 0,
        }
    }

    /// Builder: bounds the seeded per-delivery jitter.
    pub fn with_jitter_us(mut self, us: u64) -> Link {
        self.jitter_us = us;
        self
    }

    /// Builder: sets the per-delivery loss probability (clamped to
    /// `[0, 1)`).
    pub fn with_loss(mut self, p: f64) -> Link {
        self.loss = p.clamp(0.0, 0.999_999);
        self
    }

    /// Builder: seeds the jitter/loss draws (the fleet additionally mixes
    /// the node index in, so identical links on different nodes diverge).
    pub fn with_seed(mut self, seed: u64) -> Link {
        self.seed = seed;
        self
    }

    /// Builder: scripts a partition window — every delivery in
    /// `[from, to)` is lost, deterministically.
    pub fn with_partition(mut self, from: TimePoint, to: TimePoint) -> Link {
        self.partitions.push((from, to));
        self
    }

    /// Whether a scripted partition covers `at`.
    pub fn partitioned_at(&self, at: TimePoint) -> bool {
        self.partitions.iter().any(|&(f, t)| at >= f && at < t)
    }

    /// One uniform draw in `[0, 1)` from the counted stream.
    fn draw_unit(&mut self) -> f64 {
        let h = splitmix64(self.seed ^ self.draws.wrapping_mul(0x2545_F491_4F6C_DD1D));
        self.draws += 1;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Attempts one delivery of `bytes` at `at`: `None` when the message
    /// is lost (partition window or loss coin), otherwise the one-way
    /// delay — propagation + transfer + seeded jitter. Every call draws
    /// once for loss and once for jitter, keeping the stream aligned
    /// whatever the outcome.
    pub fn delivery(&mut self, at: TimePoint, bytes: u64) -> Option<TimeDelta> {
        let lost = self.draw_unit() < self.loss;
        let jitter = if self.jitter_us > 0 {
            (self.draw_unit() * self.jitter_us as f64) as u64
        } else {
            self.draws += 1;
            0
        };
        if lost || self.partitioned_at(at) {
            return None;
        }
        let transfer_us = bytes.saturating_mul(1_000_000) / self.bandwidth;
        Some(TimeDelta::from_micros(
            (self.propagation_us + transfer_us + jitter) as i64,
        ))
    }
}

/// A scripted node fault plan: crashes (with optional restart) and
/// brownout windows, all on the simulated clock.
#[derive(Debug, Clone, Default)]
pub struct NodeFaultPlan {
    crashes: Vec<(TimePoint, Option<TimePoint>)>,
    brownouts: Vec<(TimePoint, TimePoint, u8)>,
}

impl NodeFaultPlan {
    /// An empty plan (the node never faults).
    pub fn new() -> NodeFaultPlan {
        NodeFaultPlan::default()
    }

    /// Scripts a crash at `at` with no restart.
    pub fn with_crash(mut self, at: TimePoint) -> NodeFaultPlan {
        self.crashes.push((at, None));
        self
    }

    /// Scripts a crash at `at` and a restart-with-salvage at `restart`:
    /// the node comes back holding its pre-crash shard bytes, so shards
    /// migrating home pay a metadata-only handoff.
    pub fn with_crash_restart(mut self, at: TimePoint, restart: TimePoint) -> NodeFaultPlan {
        assert!(restart > at, "a node must crash before it restarts");
        self.crashes.push((at, Some(restart)));
        self
    }

    /// Scripts a brownout: from `from` until `to` the node runs at
    /// `health_percent`% — its shards' admission and service bandwidth are
    /// derated ([`Capacity::derated`]) for the window.
    pub fn with_brownout(
        mut self,
        from: TimePoint,
        to: TimePoint,
        health_percent: u8,
    ) -> NodeFaultPlan {
        assert!(to > from, "a brownout window must have positive width");
        self.brownouts.push((from, to, health_percent.min(100)));
        self
    }
}

/// One simulated node: a name, a [`Link`], a [`NodeFaultPlan`], a
/// [`Breaker`] over its deliveries (open: its shards fail over; a
/// successful ping closes it) and liveness/health state. The shards a node
/// hosts are owned by the [`PlacementService`], not the node — placement
/// is the only thing a migration changes.
#[derive(Debug)]
pub struct Node {
    name: String,
    link: Link,
    plan: NodeFaultPlan,
    breaker: Breaker,
    up: bool,
    health: u8,
    crashes: u64,
    restarts: u64,
    /// Shards whose bytes this node still holds from an earlier stay —
    /// the salvage that makes a migration *back* metadata-only.
    salvaged: BTreeSet<usize>,
}

impl Node {
    /// The node's display name (`node{i}` unless renamed by a link).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the node is currently up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Current health in percent (100 outside brownout windows).
    pub fn health_percent(&self) -> u8 {
        self.health
    }

    /// The node's network link.
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Scripted crashes applied so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Scripted restarts applied so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Circuit-breaker trips (unscripted unreachability) so far.
    pub fn breaker_trips(&self) -> u64 {
        self.breaker.trips()
    }
}

/// The shard→node map, owner of every placement decision.
///
/// Objects map to shards by [`shard_of`] (stable and seeded — the golden
/// vectors pin it); shards map to nodes by this table. The *home* of a
/// shard is its initial round-robin node; a restarted node's home shards
/// migrate back to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementService {
    seed: u64,
    shard_to_node: Vec<usize>,
    home: Vec<usize>,
    epoch: u64,
}

impl PlacementService {
    fn new(shards: usize, nodes: usize, seed: u64) -> PlacementService {
        let table: Vec<usize> = (0..shards).map(|s| s % nodes).collect();
        PlacementService {
            seed,
            home: table.clone(),
            shard_to_node: table,
            epoch: 0,
        }
    }

    /// The routing seed (same seed the object hash uses).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of shards in the table.
    pub fn shard_count(&self) -> usize {
        self.shard_to_node.len()
    }

    /// The node currently hosting `shard`.
    pub fn node_of_shard(&self, shard: usize) -> usize {
        self.shard_to_node[shard]
    }

    /// The shard owning `object` (pure [`shard_of`] hash).
    pub fn shard_of_object(&self, object: &str) -> usize {
        shard_of(object, self.seed, self.shard_to_node.len())
    }

    /// The node `object` currently routes to.
    pub fn node_of_object(&self, object: &str) -> usize {
        self.node_of_shard(self.shard_of_object(object))
    }

    /// `shard`'s initial (round-robin) node — where it migrates back to
    /// after its home restarts.
    pub fn home_of(&self, shard: usize) -> usize {
        self.home[shard]
    }

    /// Shards hosted by `node`, ascending.
    pub fn hosted(&self, node: usize) -> Vec<usize> {
        self.shard_to_node
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n == node)
            .map(|(s, _)| s)
            .collect()
    }

    /// Bumped on every reassignment — cheap staleness check for cached
    /// routes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn assign(&mut self, shard: usize, node: usize) {
        self.shard_to_node[shard] = node;
        self.epoch += 1;
    }

    /// A plain-text placement table (shard, home, current node), one row
    /// per shard — deterministic, for operator output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:>6} {:>6} {:>8}", "shard", "home", "node");
        for (s, &n) in self.shard_to_node.iter().enumerate() {
            let _ = writeln!(out, "{:>6} {:>6} {:>8}", s, self.home[s], n);
        }
        out
    }
}

/// Why a fleet request failed.
#[derive(Debug)]
pub enum FleetError {
    /// The routed shard's server rejected the request.
    Serve(ServeError),
    /// Every transport attempt to the hosting node was lost (node down,
    /// partition window, or loss storm past the retry budget).
    Unreachable {
        /// The node the final attempt targeted.
        node: usize,
        /// The shard the request routed to.
        shard: usize,
        /// Delivery attempts made.
        attempts: u32,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Serve(e) => write!(f, "fleet request failed at the shard: {e}"),
            FleetError::Unreachable {
                node,
                shard,
                attempts,
            } => write!(
                f,
                "node {node} (hosting shard {shard}) unreachable after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeError> for FleetError {
    fn from(e: ServeError) -> FleetError {
        FleetError::Serve(e)
    }
}

/// Per-node statistics in a [`FleetStats`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// The node's name.
    pub name: String,
    /// Whether the node ended the run up.
    pub up: bool,
    /// Shards hosted at snapshot time, ascending.
    pub hosted: Vec<usize>,
    /// Scripted crashes applied.
    pub crashes: u64,
    /// Scripted restarts applied.
    pub restarts: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Elements served by the shards hosted at snapshot time.
    pub elements_served: usize,
}

/// A fleet-wide statistics snapshot: the cross-shard rollup plus per-node
/// and transport/migration accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Per-shard snapshots and their exact merge (placement-independent:
    /// a shard's stats follow it across nodes).
    pub shards: ShardedStats,
    /// One entry per node, in node order.
    pub per_node: Vec<NodeStats>,
    /// Shard migrations performed (failover, restore and rebalance).
    pub migrations: u64,
    /// Catalog-handoff bytes charged across all migrations.
    pub handoff_bytes: u64,
    /// Transport deliveries attempted (including pings).
    pub transport_sent: u64,
    /// Transport deliveries lost.
    pub transport_lost: u64,
    /// Requests that needed more than one delivery attempt.
    pub transport_retried: u64,
    /// Elements abandoned on crashed nodes (no-migration baseline only).
    pub elements_shed: u64,
}

impl FleetStats {
    /// Node-level load skew in percent over *up* nodes: how far the
    /// hottest node's served-element count sits above the per-node mean —
    /// the `fleet.skew` gauge.
    pub fn skew_percent(&self) -> i64 {
        skew_percent(
            self.per_node
                .iter()
                .filter(|n| n.up)
                .map(|n| n.elements_served),
        )
    }
}

/// One placement change: `shard` moved from node `from` to node `to`.
/// The typed receipt every fleet action entry point hands back, and the
/// rollback handle the remediation plane replays in reverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// The shard that moved.
    pub shard: usize,
    /// The node it left.
    pub from: usize,
    /// The node now hosting it.
    pub to: usize,
}

impl fmt::Display for ShardMove {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{} node{}→node{}", self.shard, self.from, self.to)
    }
}

/// Skew of a load distribution in percent: `(max − mean) / mean × 100`,
/// rounded; 0 when empty or idle. This is THE fleet skew definition — the
/// `fleet.skew` and `shard.skew` gauges, the rebalance trigger and the
/// health plane's `SkewBelow` objective all compute it (the golden
/// agreement test pins the alert to this function).
pub fn skew_percent(loads: impl Iterator<Item = usize>) -> i64 {
    let loads: Vec<usize> = loads.collect();
    let total: usize = loads.iter().sum();
    if total == 0 || loads.is_empty() {
        return 0;
    }
    let mean = total as f64 / loads.len() as f64;
    let max = loads.iter().copied().max().unwrap_or(0);
    (((max as f64 - mean) / mean) * 100.0).round() as i64
}

/// Scripted node lifecycle events, derived from the fault plans and
/// processed in `(time, node, kind)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum NodeEventKind {
    Crash,
    Restart,
    BrownoutStart(u8),
    BrownoutEnd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct NodeEvent {
    at: TimePoint,
    node: usize,
    kind: NodeEventKind,
}

/// A simulated multi-node fleet over a [`ShardedDb`]: one [`Server`] per
/// shard, hosted on [`Node`]s behind a [`PlacementService`], reached over
/// lossy [`Link`]s, with scripted [`NodeFaultPlan`]s and live shard
/// migration. See the module-level docs for the model.
#[derive(Debug)]
pub struct Fleet<S: BlobStore = MemBlobStore> {
    /// The shard set: construction, id → shard routing, per-shard
    /// accessors and the `shard{i}.`/global rollups all live there. The
    /// fleet drives it at one worker and adds what moves — placement.
    shards: ShardedServer<S>,
    nodes: Vec<Node>,
    placement: PlacementService,
    node_capacity: Capacity,
    /// Fleet-wide admission derate in percent (100 = none): every node's
    /// capacity is additionally derated by this factor — the remediation
    /// plane's `DerateAdmission` lever.
    admission_derate: u8,
    migration: bool,
    clock: TimePoint,
    metrics: MetricsRegistry,
    tracer: Tracer,
    events: Vec<NodeEvent>,
    next_event: usize,
}

impl<S: BlobStore> Fleet<S> {
    /// A fleet of `nodes` nodes over `db`, shards placed round-robin
    /// (`shard i → node i % nodes`). `node_capacity` is one *node's*
    /// budget, split evenly across the shards it currently hosts — host
    /// more, serve each slower — so failover onto survivors is paid for,
    /// not free.
    ///
    /// Defaults: 125 MB/s links seeded from the routing seed, 4 delivery
    /// attempts, breaker trip after 2 consecutive losses with a 200 ms
    /// cooldown, migration on, 50 ms crash detection. Nothing rebalances
    /// on load skew unless a remediation playbook pulls
    /// [`Fleet::rebalance_on_skew`].
    pub fn new(db: ShardedDb<S>, nodes: usize, node_capacity: Capacity) -> Fleet<S> {
        assert!(nodes > 0, "a fleet needs at least one node");
        let seed = db.seed();
        let shards = ShardedServer::new(db, node_capacity);
        let placement = PlacementService::new(shards.shard_count(), nodes, seed);
        let nodes: Vec<Node> = (0..nodes)
            .map(|i| Node {
                name: format!("node{i}"),
                link: Link::new(125_000_000).with_seed(splitmix64(seed ^ (i as u64 + 1))),
                plan: NodeFaultPlan::default(),
                breaker: Breaker::new(
                    BREAKER_THRESHOLD,
                    TimeDelta::from_millis(BREAKER_COOLDOWN_MS),
                ),
                up: true,
                health: 100,
                crashes: 0,
                restarts: 0,
                salvaged: BTreeSet::new(),
            })
            .collect();
        let mut fleet = Fleet {
            shards,
            nodes,
            placement,
            node_capacity,
            admission_derate: 100,
            migration: true,
            clock: TimePoint::ZERO,
            metrics: MetricsRegistry::new(),
            tracer: Tracer::disabled(),
            events: Vec::new(),
            next_event: 0,
        };
        for node in 0..fleet.nodes.len() {
            fleet.recapacity(node);
        }
        fleet
    }

    /// Builder: gives every shard its own segment cache of `budget_bytes`.
    pub fn with_cache_budget(mut self, budget_bytes: u64) -> Fleet<S> {
        self.shards = self.shards.with_cache_budget(budget_bytes);
        self
    }

    /// Builder: attaches one tracer to every shard and to the fleet's own
    /// node/migration events (clones share the ring — one timeline).
    pub fn with_tracer(mut self, tracer: Tracer) -> Fleet<S> {
        self.shards = self.shards.with_tracer(tracer.clone());
        self.tracer = tracer;
        self
    }

    /// Builder: replaces node `i`'s link.
    pub fn with_link(mut self, node: usize, link: Link) -> Fleet<S> {
        self.nodes[node].link = link;
        self
    }

    /// Builder: scripts node `i`'s fault plan (crashes, restarts,
    /// brownouts).
    pub fn with_fault_plan(mut self, node: usize, plan: NodeFaultPlan) -> Fleet<S> {
        for &(at, restart) in &plan.crashes {
            self.events.push(NodeEvent {
                at,
                node,
                kind: NodeEventKind::Crash,
            });
            if let Some(r) = restart {
                self.events.push(NodeEvent {
                    at: r,
                    node,
                    kind: NodeEventKind::Restart,
                });
            }
        }
        for &(from, to, health) in &plan.brownouts {
            self.events.push(NodeEvent {
                at: from,
                node,
                kind: NodeEventKind::BrownoutStart(health),
            });
            self.events.push(NodeEvent {
                at: to,
                node,
                kind: NodeEventKind::BrownoutEnd,
            });
        }
        self.events.sort();
        self.nodes[node].plan = plan;
        self
    }

    /// Builder: enables or disables shard migration entirely. Disabled,
    /// a crashed node takes its shards' open sessions down with it
    /// ([`Server::shed_pending`]) — the no-migration baseline.
    pub fn with_migration(mut self, migrate: bool) -> Fleet<S> {
        self.migration = migrate;
        self
    }

    // ------------------------------------------------------------------
    // Read accessors
    // ------------------------------------------------------------------

    /// The routing seed.
    pub fn seed(&self) -> u64 {
        self.placement.seed
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    /// A node.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// The nodes in order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// A shard's server (sessions, stats, metrics).
    pub fn shard(&self, i: usize) -> &Server<S> {
        self.shards.shard(i)
    }

    /// The placement table.
    pub fn placement(&self) -> &PlacementService {
        &self.placement
    }

    /// The fleet clock: the latest simulated time processed.
    pub fn clock(&self) -> TimePoint {
        self.clock
    }

    /// Every shard's sessions, in shard order then admission order.
    pub fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.shards.sessions()
    }

    /// A session by (globally unique) id.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.shards.session(id)
    }

    /// [`Server::check_invariants`] on every shard, in shard order; `Err`
    /// names the first shard that fails.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.shards.check_invariants()
    }

    /// Shard migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.metrics.counter(M_MIGRATIONS)
    }

    /// The shared tracer handle — the same ring every shard writes into.
    /// Riders on the fleet tick (the telemetry sampler, the health plane)
    /// use it to put their own records on the fleet timeline.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Bumps a counter in the fleet's own registry (the one
    /// [`Fleet::metrics`] merges unprefixed, next to the `fleet.*`
    /// transport counters). Lets tick riders account their events in the
    /// same rollup operators already read.
    pub fn inc_metric(&mut self, name: impl Into<String> + AsRef<str>, by: u64) {
        self.metrics.inc(name, by);
    }

    /// An owned snapshot of the shared trace.
    pub fn trace(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Writes the shared trace as Chrome `trace_event` JSON.
    pub fn trace_to_writer(&self, w: &mut dyn io::Write) -> io::Result<()> {
        chrome_trace_to_writer(&self.trace(), w)
    }

    /// Deadline-miss attribution over the shared trace — including the
    /// `node-loss` cause migration stalls are charged to.
    pub fn attribution(&self) -> AttributionReport {
        self.tracer.read(|trace| attribute(trace.records()))
    }

    // ------------------------------------------------------------------
    // The request plane
    // ------------------------------------------------------------------

    /// Submits a request at simulated time `at` (non-decreasing across
    /// calls). The request crosses the hosting node's link — paying
    /// transport delay, and retried on loss — then runs on the owning
    /// shard's server at its (possibly handoff-clamped) arrival time.
    /// `Open` routes by name hash, session requests by id arithmetic:
    /// both route through the *current* placement, so a request retried
    /// across a failover lands on the shard's new node.
    pub fn request(&mut self, at: TimePoint, request: Request) -> Result<Response, FleetError> {
        if at < self.clock {
            return Err(ServeError::NonMonotonicTime {
                at,
                clock: self.clock,
            }
            .into());
        }
        self.advance(at);
        self.probe_nodes(at);
        let shard = self.shards.route(&request)?;

        // Transport: deliver over the hosting node's link, retrying on the
        // TRANSPORT_RETRY schedule. Placement is re-read per attempt, so a
        // breaker-tripped failover mid-loop reroutes the retry.
        let mut tries = RetryReport::default();
        loop {
            tries.attempts += 1;
            let send_at = at + TimeDelta::from_micros(tries.backoff_spent_us as i64);
            let node = self.placement.node_of_shard(shard);
            self.metrics.inc(M_SENT, 1);
            let delivered = if !self.nodes[node].up {
                None
            } else {
                self.nodes[node].link.delivery(send_at, REQUEST_BYTES)
            };
            match delivered {
                Some(delay) => {
                    if self.nodes[node].breaker.on_success() {
                        self.node_recovered(node, send_at);
                    }
                    if tries.attempts > 1 {
                        self.metrics.inc(M_RETRIED, 1);
                    }
                    // Transport is ordered per shard: a message cannot
                    // arrive before already-processed traffic, and a
                    // handoff in progress queues it until the move
                    // completes — which is how a Play issued before a
                    // migration completes after it.
                    // The owning shard alone runs to `arrive`; the rest of
                    // the set stays at `at`.
                    let server = &mut self.shards.shards_mut()[shard];
                    let arrive = (send_at + delay)
                        .max(server.clock())
                        .max(server.stall_until());
                    let response = server.request(arrive, request)?;
                    self.clock = self.clock.max(at);
                    return Ok(response);
                }
                None => {
                    self.metrics.inc(M_LOST, 1);
                    self.tracer.event(
                        "transport.lost",
                        Category::Fleet,
                        send_at,
                        SpanId::NONE,
                        None,
                        vec![("node", node.into()), ("shard", shard.into())],
                    );
                    if self.nodes[node].breaker.on_failure(send_at) {
                        self.metrics.inc(M_TRIPS, 1);
                        self.tracer.event(
                            "node.breaker_trip",
                            Category::Fleet,
                            send_at,
                            SpanId::NONE,
                            None,
                            vec![("node", node.into())],
                        );
                        if self.migration {
                            self.evacuate(node, send_at, "breaker");
                        }
                    }
                    if TRANSPORT_RETRY.next_backoff(&mut tries).is_none() {
                        self.clock = self.clock.max(at);
                        return Err(FleetError::Unreachable {
                            node: self.placement.node_of_shard(shard),
                            shard,
                            attempts: tries.attempts,
                        });
                    }
                }
            }
        }
    }

    /// Runs the fleet forward to `to`: scripted node events are applied in
    /// order, with every shard's event loop drained up to each event time
    /// first.
    pub fn run_until(&mut self, to: TimePoint) {
        self.advance(to);
    }

    /// Charges an out-of-band payload of `bytes` (e.g. a batch of finished
    /// telemetry segments) over `node`'s link at `at`, exactly like request
    /// traffic: it counts against the transport sent/lost totals and draws
    /// loss + jitter from the link's seeded stream. Returns the delivery
    /// delay, or `None` when the payload was lost (node down, partitioned,
    /// or a loss draw) — the caller decides whether to retry later.
    ///
    /// # Panics
    /// When `node` is out of range.
    pub fn charge_transfer(&mut self, node: usize, at: TimePoint, bytes: u64) -> Option<TimeDelta> {
        self.metrics.inc(M_SENT, 1);
        self.metrics.inc(M_XFER_BYTES, bytes);
        let delivered = if self.nodes[node].up {
            self.nodes[node].link.delivery(at, bytes)
        } else {
            None
        };
        if delivered.is_none() {
            self.metrics.inc(M_LOST, 1);
        }
        delivered
    }

    /// Drains every remaining scripted event and every shard's event loop,
    /// and returns the final fleet statistics. With migration disabled,
    /// shards still stranded on downed nodes shed their open sessions
    /// here if their crash event already fired.
    pub fn finish(&mut self) -> FleetStats {
        if let Some(last) = self.events.last().map(|e| e.at) {
            self.advance(self.clock.max(last));
        }
        let shards = self.shards.finish();
        self.clock = self.clock.max(self.shards.clock());
        self.stats_from(shards)
    }

    /// A point-in-time fleet snapshot.
    pub fn stats(&self) -> FleetStats {
        self.stats_from(self.shards.stats())
    }

    fn stats_from(&self, shards: ShardedStats) -> FleetStats {
        let per_node = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let hosted = self.placement.hosted(i);
                let elements_served = hosted
                    .iter()
                    .map(|&s| shards.per_shard[s].elements_served)
                    .sum();
                NodeStats {
                    name: n.name.clone(),
                    up: n.up,
                    hosted,
                    crashes: n.crashes,
                    restarts: n.restarts,
                    breaker_trips: n.breaker.trips(),
                    elements_served,
                }
            })
            .collect();
        FleetStats {
            shards,
            per_node,
            migrations: self.metrics.counter(M_MIGRATIONS),
            handoff_bytes: self.metrics.counter(M_HANDOFF_BYTES),
            transport_sent: self.metrics.counter(M_SENT),
            transport_lost: self.metrics.counter(M_LOST),
            transport_retried: self.metrics.counter(M_RETRIED),
            elements_shed: self.metrics.counter(M_SHED),
        }
    }

    /// The fleet metrics rollup: every shard's registry under `shard{i}.`,
    /// every node's hosted-shard merge under `node{i}.`, the unprefixed
    /// global aggregate, the `fleet.*` transport/migration counters, and
    /// the `fleet.nodes`, `fleet.nodes.up`, `fleet.skew` and `shard.skew`
    /// gauges.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut rollup = self.shards.metrics();
        for i in 0..self.nodes.len() {
            let mut node_view = MetricsRegistry::new();
            for s in self.placement.hosted(i) {
                node_view.merge_prefixed(self.shards.shard(s).metrics(), "");
            }
            rollup.merge_prefixed(&node_view, &format!("node{i}."));
        }
        rollup.merge_prefixed(&self.metrics, "");
        rollup.set_gauge(G_NODES, self.nodes.len() as i64);
        rollup.set_gauge(
            G_NODES_UP,
            self.nodes.iter().filter(|n| n.up).count() as i64,
        );
        rollup.set_gauge(G_FLEET_SKEW, self.stats().skew_percent());
        rollup
    }

    // ------------------------------------------------------------------
    // Node lifecycle and migration
    // ------------------------------------------------------------------

    /// Applies every scripted event due by `to`, draining shard event
    /// loops to each event instant first, then advances the clock.
    fn advance(&mut self, to: TimePoint) {
        while self.next_event < self.events.len() && self.events[self.next_event].at <= to {
            let ev = self.events[self.next_event];
            self.next_event += 1;
            let at = ev.at.max(self.clock);
            self.shards.run_until(at);
            self.apply_event(ev, at);
            self.clock = self.clock.max(at);
        }
        self.shards.run_until(to);
        self.clock = self.clock.max(to);
    }

    fn apply_event(&mut self, ev: NodeEvent, at: TimePoint) {
        match ev.kind {
            NodeEventKind::Crash => {
                if !self.nodes[ev.node].up {
                    return;
                }
                self.nodes[ev.node].up = false;
                self.nodes[ev.node].crashes += 1;
                self.metrics.inc(M_CRASHES, 1);
                let hosted = self.placement.hosted(ev.node);
                self.tracer.event(
                    "node.crash",
                    Category::Fleet,
                    at,
                    SpanId::NONE,
                    None,
                    vec![("node", ev.node.into()), ("hosted", hosted.len().into())],
                );
                if self.migration && self.nodes.iter().any(|n| n.up) {
                    self.evacuate(ev.node, at, "crash");
                } else {
                    // Nobody to fail over to (or migration disabled): the
                    // node's shards lose their open sessions.
                    let mut shed = 0usize;
                    for s in hosted {
                        shed += self.shards.shards_mut()[s].shed_pending(at);
                    }
                    self.metrics.inc(M_SHED, shed as u64);
                }
            }
            NodeEventKind::Restart => {
                if self.nodes[ev.node].up {
                    return;
                }
                self.nodes[ev.node].up = true;
                self.nodes[ev.node].health = 100;
                self.nodes[ev.node].breaker.on_success();
                self.nodes[ev.node].restarts += 1;
                self.metrics.inc(M_RESTARTS, 1);
                self.tracer.event(
                    "node.restart",
                    Category::Fleet,
                    at,
                    SpanId::NONE,
                    None,
                    vec![("node", ev.node.into())],
                );
                if self.migration {
                    self.restore_home(ev.node, at);
                }
                self.recapacity(ev.node);
            }
            NodeEventKind::BrownoutStart(health) => {
                if !self.nodes[ev.node].up {
                    return;
                }
                self.nodes[ev.node].health = health;
                self.tracer.event(
                    "node.brownout",
                    Category::Fleet,
                    at,
                    SpanId::NONE,
                    None,
                    vec![
                        ("node", ev.node.into()),
                        ("health", u32::from(health).into()),
                    ],
                );
                self.recapacity(ev.node);
            }
            NodeEventKind::BrownoutEnd => {
                if !self.nodes[ev.node].up || self.nodes[ev.node].health == 100 {
                    return;
                }
                self.nodes[ev.node].health = 100;
                self.tracer.event(
                    "node.brownout_end",
                    Category::Fleet,
                    at,
                    SpanId::NONE,
                    None,
                    vec![("node", ev.node.into())],
                );
                // Restored capacity lifts brownout-degraded admissions
                // back to full fidelity (set_capacity pokes the upgrade
                // path).
                self.recapacity(ev.node);
            }
        }
    }

    /// Pings every node whose breaker cooldown has expired — the
    /// half-open probe, driven by the request plane so a failed-over node
    /// (which sees no data traffic) can still heal.
    fn probe_nodes(&mut self, at: TimePoint) {
        for node in 0..self.nodes.len() {
            if !self.nodes[node].up {
                continue;
            }
            let breaker = &mut self.nodes[node].breaker;
            if breaker.state() == BreakerState::Closed || !breaker.allows(at) {
                continue;
            }
            self.metrics.inc(M_SENT, 1);
            match self.nodes[node].link.delivery(at, REQUEST_BYTES) {
                Some(_) => {
                    if self.nodes[node].breaker.on_success() {
                        self.node_recovered(node, at);
                    }
                }
                None => {
                    // A failed half-open probe re-arms the cooldown; only
                    // closed → open is a trip, so there is none to count.
                    self.metrics.inc(M_LOST, 1);
                    self.nodes[node].breaker.on_failure(at);
                }
            }
        }
    }

    /// A node healed (breaker closed after a trip): bring its home shards
    /// back, exactly like a restart's restore.
    fn node_recovered(&mut self, node: usize, at: TimePoint) {
        self.tracer.event(
            "node.recovered",
            Category::Fleet,
            at,
            SpanId::NONE,
            None,
            vec![("node", node.into())],
        );
        if self.migration {
            self.restore_home(node, at);
        }
    }

    /// Migrates every shard hosted by `node` onto the up node hosting the
    /// fewest shards (ties to the lowest index).
    fn evacuate(&mut self, node: usize, at: TimePoint, reason: &'static str) {
        for shard in self.placement.hosted(node) {
            let Some(target) = self.least_loaded_up_node(node) else {
                let shed = self.shards.shards_mut()[shard].shed_pending(at);
                self.metrics.inc(M_SHED, shed as u64);
                continue;
            };
            self.migrate(shard, target, at, reason);
        }
    }

    /// Migrates every shard whose *home* is `node` back onto it (salvage
    /// makes the handoff metadata-only when the bytes survived).
    fn restore_home(&mut self, node: usize, at: TimePoint) {
        for shard in 0..self.placement.shard_count() {
            if self.placement.home_of(shard) == node && self.placement.node_of_shard(shard) != node
            {
                self.migrate(shard, node, at, "restore");
            }
        }
    }

    /// The up node (excluding `not`) hosting the fewest shards.
    fn least_loaded_up_node(&self, not: usize) -> Option<usize> {
        (0..self.nodes.len())
            .filter(|&n| n != not && self.nodes[n].up)
            .min_by_key(|&n| (self.placement.hosted(n).len(), n))
    }

    /// Moves `shard` to `to`, charging the catalog handoff: metadata for
    /// every object plus the shard's BLOB payload over the target's link
    /// (payload waived when the target salvaged the shard's bytes from an
    /// earlier stay). The shard's channel stalls until the handoff
    /// completes — in-flight sessions resume afterwards, their stall
    /// attributed to `node-loss`.
    fn migrate(&mut self, shard: usize, to: usize, at: TimePoint, reason: &'static str) {
        let from = self.placement.node_of_shard(shard);
        if from == to {
            return;
        }
        let objects = self.shards.shard(shard).db().object_names().count() as u64;
        let meta_bytes = objects * METADATA_BYTES_PER_OBJECT;
        let payload_bytes = if self.nodes[to].salvaged.contains(&shard) {
            0
        } else {
            let store = self.shards.shard(shard).db().store();
            store
                .blob_ids()
                .into_iter()
                .map(|b| store.len(b).unwrap_or(0))
                .sum()
        };
        let bytes = meta_bytes + payload_bytes;
        let link = &self.nodes[to].link;
        let mut handoff_us = link.propagation_us + bytes.saturating_mul(1_000_000) / link.bandwidth;
        if !self.nodes[from].up {
            handoff_us += DETECTION_US;
        }
        let handoff_end = at + TimeDelta::from_micros(handoff_us as i64);
        self.shards.shards_mut()[shard].set_stall_until(handoff_end);
        // The source keeps (or kept) the bytes: a later migration back is
        // metadata-only. The target's copy is now authoritative.
        self.nodes[from].salvaged.insert(shard);
        self.nodes[to].salvaged.remove(&shard);
        self.placement.assign(shard, to);
        self.recapacity(from);
        self.recapacity(to);
        self.metrics.inc(M_MIGRATIONS, 1);
        self.metrics.inc(M_HANDOFF_BYTES, bytes);
        self.tracer.event(
            "shard.migrate",
            Category::Fleet,
            at,
            SpanId::NONE,
            None,
            vec![
                ("shard", shard.into()),
                ("from", from.into()),
                ("to", to.into()),
                ("bytes", bytes.into()),
                ("handoff_us", handoff_us.into()),
                ("reason", reason.into()),
            ],
        );
    }

    /// Re-splits `node`'s capacity across the shards it now hosts,
    /// derated by its brownout health.
    fn recapacity(&mut self, node: usize) {
        let hosted = self.placement.hosted(node);
        if hosted.is_empty() {
            return;
        }
        let n = hosted.len() as u64;
        let base = self
            .node_capacity
            .derated(self.nodes[node].health)
            .derated(self.admission_derate);
        let split = Capacity {
            storage_bandwidth: (base.storage_bandwidth / n).max(1),
            decode_rate: if base.decode_rate == 0 {
                0
            } else {
                (base.decode_rate / n).max(1)
            },
            overhead_us: base.overhead_us,
            max_sessions: if base.max_sessions == usize::MAX {
                usize::MAX
            } else {
                (base.max_sessions / n as usize).max(1)
            },
            policy: base.policy,
            cache_aware: base.cache_aware,
        };
        for s in hosted {
            self.shards.shards_mut()[s].set_capacity(split);
        }
    }

    // ------------------------------------------------------------------
    // Guarded fleet actions (the remediation plane's entry points)
    // ------------------------------------------------------------------

    /// Node load in integer percent — committed session demand over the
    /// node's current (derated, split) capacity, summed across its hosted
    /// shards. The same signal the telemetry plane samples as
    /// `NodeLoadPct`, so the rebalancer and the `load-skew` alert can
    /// never tell the operator two different stories.
    fn node_load_pct(&self, node: usize) -> usize {
        let hosted = self.placement.hosted(node);
        let committed: u64 = hosted
            .iter()
            .map(|&s| self.shards.shard(s).committed_bps())
            .sum();
        let capacity: u64 = hosted
            .iter()
            .map(|&s| self.shards.shard(s).capacity().storage_bandwidth)
            .sum();
        committed
            .saturating_mul(100)
            .checked_div(capacity)
            .unwrap_or(0) as usize
    }

    /// Migrates the hottest shard off the hottest node when the
    /// cross-node load skew ([`skew_percent`] over per-node
    /// committed/capacity load — the `NodeLoadPct` signal the `load-skew`
    /// alert judges) exceeds `threshold_pct`. Returns the move performed,
    /// or `None` when a guard held it back.
    ///
    /// Guarded no-op (placement untouched, nothing charged) when:
    /// * fewer than two nodes are up — a single-node fleet has nowhere to
    ///   move load;
    /// * skew is at or below `threshold_pct` — an already-balanced fleet
    ///   must not have its placement churned;
    /// * the hottest node hosts only one shard — moving it would just
    ///   relocate the hot spot, not spread it.
    pub fn rebalance_on_skew(&mut self, at: TimePoint, threshold_pct: i64) -> Option<ShardMove> {
        let up: Vec<usize> = (0..self.nodes.len())
            .filter(|&n| self.nodes[n].up)
            .collect();
        if up.len() < 2 {
            return None;
        }
        let skew = skew_percent(up.iter().map(|&n| self.node_load_pct(n)));
        if skew <= threshold_pct {
            return None;
        }
        // The genuinely hottest node (ties break low, deterministically) —
        // never a stand-in picked for hosting enough shards, which is how
        // the old rebalancer could move a shard *onto* the hot spot.
        let &hot = up
            .iter()
            .max_by_key(|&&n| (self.node_load_pct(n), usize::MAX - n))?;
        if self.placement.hosted(hot).len() < 2 || self.node_load_pct(hot) == 0 {
            return None;
        }
        let &cold = up
            .iter()
            .filter(|&&n| n != hot)
            .min_by_key(|&&n| (self.node_load_pct(n), n))?;
        let shard = self
            .placement
            .hosted(hot)
            .into_iter()
            .max_by_key(|&s| (self.shards.shard(s).committed_bps(), usize::MAX - s))?;
        self.tracer.event(
            "fleet.rebalance",
            Category::Fleet,
            at,
            SpanId::NONE,
            None,
            vec![
                ("skew", skew.into()),
                ("hot", hot.into()),
                ("cold", cold.into()),
            ],
        );
        self.migrate(shard, cold, at, "rebalance");
        Some(ShardMove {
            shard,
            from: hot,
            to: cold,
        })
    }

    /// Moves `shard` onto node `to`, charging the usual catalog handoff —
    /// the rollback half of a placement action. `None` (untouched) when
    /// the shard is already there or the target is down.
    ///
    /// # Panics
    /// When `shard` or `to` is out of range.
    pub fn move_shard(
        &mut self,
        shard: usize,
        to: usize,
        at: TimePoint,
        reason: &'static str,
    ) -> Option<ShardMove> {
        assert!(shard < self.shards.shard_count(), "shard out of range");
        assert!(to < self.nodes.len(), "node out of range");
        let from = self.placement.node_of_shard(shard);
        if from == to || !self.nodes[to].up {
            return None;
        }
        self.migrate(shard, to, at, reason);
        Some(ShardMove { shard, from, to })
    }

    /// Probes every breaker-tripped node, then migrates the shards of
    /// every node that is down (or still breaker-open) onto the
    /// least-loaded up nodes. A guarded no-op returning no moves on a
    /// healthy fleet — the kill path normally evacuates at crash time, so
    /// this only acts when a crash found no survivors (and one is back) or
    /// migration raced a fault. Returns the moves performed.
    pub fn evacuate_unhealthy(&mut self, at: TimePoint) -> Vec<ShardMove> {
        self.probe_nodes(at);
        let mut moves = Vec::new();
        for node in 0..self.nodes.len() {
            let unhealthy =
                !self.nodes[node].up || self.nodes[node].breaker.state() == BreakerState::Open;
            if !unhealthy {
                continue;
            }
            for shard in self.placement.hosted(node) {
                if let Some(target) = self.least_loaded_up_node(node) {
                    self.migrate(shard, target, at, "evacuate");
                    moves.push(ShardMove {
                        shard,
                        from: node,
                        to: target,
                    });
                }
            }
        }
        moves
    }

    /// Sets the fleet-wide admission derate (percent of node capacity
    /// handed to admission and service; 100 = none, clamped to `1..=100`)
    /// and re-splits every node's capacity. Returns the previous derate —
    /// the rollback handle. A no-op when the derate is unchanged.
    pub fn set_admission_derate(&mut self, percent: u8) -> u8 {
        let percent = percent.clamp(1, 100);
        let prev = self.admission_derate;
        if percent == prev {
            return prev;
        }
        self.admission_derate = percent;
        self.tracer.event(
            "fleet.derate",
            Category::Fleet,
            self.clock,
            SpanId::NONE,
            None,
            vec![
                ("percent", u32::from(percent).into()),
                ("prev", u32::from(prev).into()),
            ],
        );
        for node in 0..self.nodes.len() {
            self.recapacity(node);
        }
        prev
    }

    /// The current fleet-wide admission derate (100 = none).
    pub fn admission_derate(&self) -> u8 {
        self.admission_derate
    }

    /// Forces every shard's active full-fidelity sessions onto their base
    /// layer ([`Server::force_degrade`]) — sticky until
    /// [`Fleet::release_degrade_all`]. Returns sessions degraded.
    pub fn force_degrade_all(&mut self, at: TimePoint) -> usize {
        self.shards
            .shards_mut()
            .iter_mut()
            .map(|s| s.force_degrade(at))
            .sum()
    }

    /// Lifts a fleet-wide forced degradation
    /// ([`Server::release_degrade`]). Returns sessions restored.
    pub fn release_degrade_all(&mut self, at: TimePoint) -> usize {
        self.shards
            .shards_mut()
            .iter_mut()
            .map(|s| s.release_degrade(at))
            .sum()
    }

    /// Replaces every shard's segment-cache budget, returning the first
    /// shard's previous budget — the rollback handle (budgets are uniform
    /// when set through the fleet builder or this method).
    pub fn set_cache_budget_all(&mut self, budget_bytes: u64) -> u64 {
        let mut prev = 0u64;
        for (i, s) in self.shards.shards_mut().iter_mut().enumerate() {
            let p = s.set_cache_budget(budget_bytes);
            if i == 0 {
                prev = p;
            }
        }
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: i64) -> TimePoint {
        TimePoint::ZERO + TimeDelta::from_millis(ms)
    }

    #[test]
    fn link_delivery_is_seeded_and_replayable() {
        let run = || {
            let mut link = Link::new(1_000_000)
                .with_jitter_us(500)
                .with_loss(0.3)
                .with_seed(42);
            (0..32)
                .map(|i| link.delivery(t(i), 1_000))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same delivery outcomes");
        assert!(a.iter().any(|d| d.is_none()), "30% loss must lose some");
        assert!(a.iter().any(|d| d.is_some()), "30% loss must pass some");
        for d in a.iter().flatten() {
            // 200 µs propagation + 1000 µs transfer + up to 500 µs jitter.
            assert!(*d >= TimeDelta::from_micros(1_200));
            assert!(*d <= TimeDelta::from_micros(1_700));
        }
    }

    #[test]
    fn link_partitions_lose_everything_in_window() {
        let mut link = Link::new(1_000_000).with_partition(t(10), t(20));
        assert!(link.delivery(t(5), 100).is_some());
        assert!(link.delivery(t(10), 100).is_none());
        assert!(link.delivery(t(19), 100).is_none());
        assert!(link.delivery(t(20), 100).is_some());
    }

    #[test]
    fn breaker_trips_and_heals_like_the_tier_breaker() {
        // A node's breaker is the tier's, at the node's threshold/cooldown.
        let mut b = Breaker::new(
            BREAKER_THRESHOLD,
            TimeDelta::from_millis(BREAKER_COOLDOWN_MS),
        );
        assert!(!b.on_failure(t(0)), "one failure is below threshold");
        assert!(b.on_failure(t(1)), "second consecutive failure trips");
        assert_eq!(b.trips(), 1);
        assert!(!b.allows(t(150)), "open until cooldown expires");
        assert!(b.allows(t(201)), "half-open after cooldown");
        assert!(b.on_success(), "probe success heals");
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.on_success(), "already closed");
    }

    #[test]
    fn transport_retries_follow_the_storage_schedule() {
        // Every attempt fails: the backoffs taken, and the final tally.
        let schedule = |policy: RetryPolicy| {
            let mut tries = RetryReport::default();
            let mut steps = Vec::new();
            loop {
                tries.attempts += 1;
                match policy.next_backoff(&mut tries) {
                    Some(step) => steps.push(step),
                    None => return (steps, tries),
                }
            }
        };
        // Four attempts in all: backoffs of 200, 400 and 800 µs, then none.
        let (steps, tries) = schedule(TRANSPORT_RETRY);
        assert_eq!(steps, [200, 400, 800]);
        assert_eq!((tries.attempts, tries.backoff_spent_us), (4, 1_400));
        // The 50 ms budget stops a longer schedule before its retries run
        // out: 200 · (2⁷ − 1) = 25 400 µs spent, and 25 600 more would
        // overrun it.
        let (steps, tries) = schedule(RetryPolicy {
            max_retries: 20,
            ..TRANSPORT_RETRY
        });
        assert_eq!(steps.len(), 7);
        assert_eq!((tries.attempts, tries.backoff_spent_us), (8, 25_400));
    }

    #[test]
    fn placement_starts_round_robin_and_reassigns() {
        let mut p = PlacementService::new(4, 2, 7);
        assert_eq!(p.node_of_shard(0), 0);
        assert_eq!(p.node_of_shard(1), 1);
        assert_eq!(p.node_of_shard(2), 0);
        assert_eq!(p.hosted(0), vec![0, 2]);
        let e0 = p.epoch();
        p.assign(2, 1);
        assert_eq!(p.node_of_shard(2), 1);
        assert_eq!(p.home_of(2), 0, "home never changes");
        assert!(p.epoch() > e0);
        assert!(p.render().contains("shard"));
    }

    #[test]
    fn skew_percent_matches_sharded_stats_shape() {
        assert_eq!(skew_percent([10usize, 10].into_iter()), 0);
        assert_eq!(skew_percent([40usize, 0, 0, 0].into_iter()), 300);
        assert_eq!(skew_percent(std::iter::empty()), 0);
    }
}
