#!/usr/bin/env bash
# Tier-1 gate for the tbm workspace: build, tests, lints, formatting.
# Run from the repository root; any failure fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> examples smoke"
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "--> example: $name"
    cargo run --release -q -p tbm --example "$name"
done

echo "==> trace-export smoke"
# The broadcast example writes a Perfetto-loadable Chrome trace; the run
# above must have produced a non-empty, JSON-shaped file.
trace=target/broadcast_trace.json
[ -s "$trace" ] || { echo "missing or empty $trace" >&2; exit 1; }
head -c1 "$trace" | grep -q '\[' || { echo "$trace is not a JSON array" >&2; exit 1; }
echo "--> $trace: $(wc -c < "$trace") bytes"

echo "==> tier-failover smoke"
# The broadcast example again, this time over a tiered store whose
# primary tier blacks out mid-run: the example asserts zero drops,
# failover reads, and a healed breaker.
BROADCAST_TIER_BLACKOUT=1 cargo run --release -q -p tbm --example broadcast

echo "==> sharded-catalog smoke"
# And once more through the shard-aware front end: four shards, each with
# its own budget and cache; the example asserts hash routing, an exact
# per-shard -> global rollup, and the fault invariant at both levels.
BROADCAST_SHARDS=4 cargo run --release -q -p tbm --example broadcast

echo "==> fleet node-kill smoke"
# And finally on a simulated four-node fleet with a scripted node kill
# mid-broadcast: the example asserts zero dropped serves across the
# failover, real migrations, and the salvage restart restoring the home
# placement.
BROADCAST_FLEET=4 cargo run --release -q -p tbm --example broadcast

echo "==> telemetry query smoke"
# The query example runs the fleet broadcast with the telemetry plane and
# asks typed questions of the compressed store; its own asserts cover
# compression and the brownout answer. On top, the rendered report must
# contain a non-empty query table (a header rule followed by data rows).
out="$(cargo run --release -q -p tbm --example query)"
echo "$out" | grep -q '^scan(metrics)' || { echo "query example printed no metrics table" >&2; exit 1; }
echo "$out" | grep -q -- '-----' || { echo "query example printed no table rule" >&2; exit 1; }
echo "$out" | grep -A2 -- '-----' | grep -vq '(no rows)' || { echo "query tables are empty" >&2; exit 1; }

echo "==> broadcast query-report smoke"
# The broadcast example once more, with the telemetry plane riding along
# and a post-run typed query report.
BROADCAST_QUERY=1 cargo run --release -q -p tbm --example broadcast

echo "==> health-plane smoke"
# The health plane rides the fleet broadcast through a scripted brownout.
# The example's own asserts pin "exactly load-skew, exactly once, closed
# by hysteresis"; on top, the printed report must name the expected alert
# and must not have opened any other rule.
out="$(BROADCAST_HEALTH=1 cargo run --release -q -p tbm --example broadcast)"
echo "$out" | grep -q '^incident: load-skew' || { echo "health smoke: no load-skew incident report" >&2; exit 1; }
echo "$out" | grep -Eq '^load-skew +1$' || { echo "health smoke: load-skew did not open exactly once" >&2; exit 1; }
for quiet in lateness-p99-full drop-rate unverified-serves; do
    echo "$out" | grep -Eq "^$quiet +0\$" || { echo "health smoke: $quiet fired (or its count is missing)" >&2; exit 1; }
done
echo "$out" | grep -q 'breakdown by node:' || { echo "health smoke: report missing the node breakdown" >&2; exit 1; }

echo "==> remediation smoke"
# The loop closed: the same brownout with the remediation plane attached.
# The example's own asserts pin "alert opened, rebalance applied, alert
# closed, nothing rolled back, no freeze"; on top, the printed action log
# must show the skew alert opening, an applied rebalance, and the alert
# closing — with zero operator input.
out="$(BROADCAST_REMEDIATE=1 cargo run --release -q -p tbm --example broadcast)"
echo "$out" | grep -Eq '^load-skew +1$' || { echo "remediation smoke: load-skew did not open exactly once" >&2; exit 1; }
echo "$out" | grep -Eq '\[load-skew\] rebalance-shards.* applied' || { echo "remediation smoke: no applied rebalance in the action log" >&2; exit 1; }
echo "$out" | grep -q 'remediation timeline:' || { echo "remediation smoke: report missing the remediation timeline" >&2; exit 1; }
echo "$out" | grep -q 'zero operator input' || { echo "remediation smoke: the alert did not close on its own" >&2; exit 1; }

echo "==> knob audit"
# A public builder or setter of the serving core that nothing outside the
# crate sets is a constant, not an option: tests, examples, `exp_*`,
# `tbm-query` and `perf` all count as callers.
unset_knobs=0
for knob in $(grep -ohE 'pub fn (with|set)_[a-z_]+' \
    crates/serve/src/{server,shard,fleet,capacity}.rs | awk '{print $3}' | sort -u); do
    grep -rqE "[.:]$knob\(" --include='*.rs' --exclude-dir=serve tests examples crates ||
        { echo "knob audit: $knob has no call site outside crates/serve/src" >&2; unset_knobs=1; }
done
[ "$unset_knobs" = 0 ]

echo "==> benchmark smoke"
# `perf`, the repository's benchmark, is a package of its own (see its
# README), so the workspace build above never compiles it. Build it from
# its own manifest, run its own unit tests (TimedStore transparency, one
# store read per layer on first touch, the cold storm's hit share: they
# pin behaviour of the crates the benchmark measures), then run the two
# serve-loop workloads and `storm_cold` -- the only one on `FileBlobStore`
# and tiers -- briefly. Only the exit status is read: a run fails when one
# of its output checks does (the fault partition, every due element
# served, digests identical across repetitions and at 1 vs 2 workers). No
# timing is gated here.
perf_manifest=crates/bench/src/bin/perf/Cargo.toml
cargo build --release --offline -q --manifest-path "$perf_manifest"
echo "--> perf unit tests"
cargo test --release --offline -q --manifest-path "$perf_manifest"
for workload in storm_hot session_churn storm_cold; do
    echo "--> perf run $workload"
    cargo run --release --offline -q --manifest-path "$perf_manifest" -- \
        run "$workload" --seed 1 --seconds 3 > /dev/null
done

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> CI green"
