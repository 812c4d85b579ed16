//! The names the binary shares with `BENCHMARK.json` at the repository
//! root: the workloads, every metric's name, unit and direction, and (for
//! end-to-end metrics) the regression bound `perf check` judges by. The
//! file is written by hand; a unit test fails when the two disagree.

/// Seconds one run measures for (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u32 = 15;

/// The workloads. Why each exists is in `BENCHMARK.json` and the README.
pub const WORKLOADS: [&str; 5] = [
    "storm_hot",
    "storm_cold",
    "session_churn",
    "fleet_incident",
    "media_pipeline",
];

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "request_us_p50",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ingest_mb_per_s",
        unit: "MB/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "stored_per_raw_byte",
        unit: "B/B",
        better: "lower",
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// The per-layer metrics, reported by every workload's traced run. A layer
/// a workload never enters reads 0 there — which is the prediction for it.
pub const PER_LAYER: &[PerLayer] = &[
    // Self-time shares of a traced repetition, by layer.
    ("share.serve_pct", "%", "lower"),
    ("share.blob_pct", "%", "lower"),
    ("share.query_pct", "%", "lower"),
    ("share.codec_pct", "%", "lower"),
    ("share.interp_pct", "%", "lower"),
    ("share.derive_pct", "%", "lower"),
    ("share.compose_pct", "%", "lower"),
    ("share.db_pct", "%", "lower"),
    ("share.bench_pct", "%", "lower"),
    // serve.server
    ("serve.drain.self_ns_per_event", "ns/event", "lower"),
    ("serve.batches_per_event", "ratio", "lower"),
    ("serve.scale.ns_per_event_1k", "ns/event", "lower"),
    ("serve.scale.ns_per_event_4k", "ns/event", "lower"),
    ("serve.scale.ns_per_event_16k", "ns/event", "lower"),
    ("serve.request.open_us_p50", "us", "lower"),
    ("serve.request.play_us_p50", "us", "lower"),
    ("serve.request.seek_us_p50", "us", "lower"),
    ("serve.request.close_us_p50", "us", "lower"),
    ("serve.request.share_pct", "%", "lower"),
    // The tail of the end-to-end `request_us_p50`: too unsteady on a shared
    // host to carry a bound (see the README), so it lives here.
    ("request.p99_us", "us", "lower"),
    // serve.capacity / serve.session
    ("serve.capacity.fits_ns", "ns", "lower"),
    ("serve.sessions.rejected", "count", "lower"),
    ("serve.sessions.admitted_degraded", "count", "lower"),
    ("serve.sessions.upgraded", "count", "higher"),
    // serve.cache
    ("serve.cache.hit_share", "share", "higher"),
    ("serve.cache.evictions", "count", "lower"),
    ("serve.cache.get_ns", "ns", "lower"),
    ("serve.cache.insert_ns", "ns", "lower"),
    // serve.pool / serve.shard
    ("serve.pool.events_per_s_w2", "1/s", "higher"),
    ("serve.pool.speedup_w2", "ratio", "higher"),
    ("serve.pool.steals", "count", "higher"),
    ("serve.shard.skew_pct", "%", "lower"),
    // serve.fleet
    ("serve.fleet.run_until_ms_p50", "ms", "lower"),
    ("serve.fleet.migrations", "count", "lower"),
    ("serve.fleet.transport_retried", "count", "lower"),
    ("serve.fleet.shed", "count", "lower"),
    // The simulated-time outcome: deterministic per seed, so any movement
    // is a behaviour change, not noise.
    ("serve.sim.miss_share", "share", "lower"),
    ("serve.sim.lateness_p99_us", "sim_us", "lower"),
    ("serve.sim.dropped_share", "share", "lower"),
    ("serve.sim.refused_share", "share", "lower"),
    // blob
    ("blob.read_calls", "count", "lower"),
    ("blob.read_bytes", "B", "lower"),
    ("blob.busy_ns", "ns", "lower"),
    ("blob.read_ns_p50", "ns", "lower"),
    ("blob.read_fail", "count", "lower"),
    ("blob.tier.mem_hit_share", "share", "higher"),
    ("blob.tier.promotions", "count", "lower"),
    // core
    ("core.crc32_mb_per_s", "MB/s", "higher"),
    // interp
    ("interp.capture_ns_per_element", "ns", "lower"),
    ("interp.index_lookup_ns", "ns", "lower"),
    // codec
    ("codec.dct.encode_ns_per_frame", "ns", "lower"),
    ("codec.dct.decode_ns_per_frame", "ns", "lower"),
    ("codec.scalable.encode_ns_per_frame", "ns", "lower"),
    ("codec.scalable.decode_full_ns_per_frame", "ns", "lower"),
    ("codec.interframe.encode_ns_per_frame", "ns", "lower"),
    ("codec.interframe.decode_ns_per_frame", "ns", "lower"),
    ("codec.adpcm.encode_ns_per_s", "ns", "lower"),
    ("codec.adpcm.decode_ns_per_s", "ns", "lower"),
    // derive / compose / player
    ("derive.expand_ns_per_element", "ns", "lower"),
    ("derive.pull_frame_ns", "ns", "lower"),
    ("compose.render_ns_per_frame", "ns", "lower"),
    ("compose.mix_ns_per_100ms", "ns", "lower"),
    ("player.sim_ns_per_element", "ns", "lower"),
    // db
    ("db.save_ms", "ms", "lower"),
    ("db.load_ms", "ms", "lower"),
    ("db.bytes_on_disk", "B", "lower"),
    // obs
    ("obs.metrics.inc_ns", "ns", "lower"),
    ("obs.metrics.observe_ns", "ns", "lower"),
    ("obs.metrics.render_us", "us", "lower"),
    ("obs.tracer.event_ns_disabled", "ns", "lower"),
    ("obs.tracer.event_ns_enabled", "ns", "lower"),
    ("obs.tracer.dropped", "count", "lower"),
    ("obs.tracer_on.ns_per_event", "ns/event", "lower"),
    // query
    ("query.tick_us_p50", "us", "lower"),
    ("query.tick_us_p99", "us", "lower"),
    ("query.sink.append_ns", "ns", "lower"),
    ("query.store.compression_ratio", "ratio", "higher"),
    ("query.aggregate_us", "us", "lower"),
    ("query.health.observe_tick_us", "us", "lower"),
    ("query.remediate.actions", "count", "lower"),
    ("query.incidents", "count", "lower"),
    ("query.shipped_bytes", "B", "lower"),
    ("query.lost_shipments", "count", "lower"),
    ("query.report_render_us", "us", "lower"),
    // time
    ("time.rational_add_ns", "ns", "lower"),
    ("time.micros_conv_ns", "ns", "lower"),
    // bench
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.generator_ns_per_request", "ns", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(tbm_obs::validate_json(&json), Ok(()));
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        for name in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"why\": ")),
                "{name}"
            );
        }
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(json.contains(&entry), "{entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "{entry}");
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json names something the binary does not report"
        );
    }
}
