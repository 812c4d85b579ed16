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

echo "==> scenario smokes"
# Every scenario of `tbm_bench::scenario` through the broadcast example,
# for exit status only: each mode asserts its own contract, and
# `tests/*_storm.rs` assert the same runs in typed form. The list of names
# is the one the example prints when it refuses a name — which it must.
if names="$(cargo run --release -q -p tbm --example broadcast -- no-such-scenario 2>&1 >/dev/null)"; then
    echo "broadcast accepted an unknown scenario name" >&2; exit 1
fi
names="$(echo "$names" | sed -n 's/^scenarios: //p')"
[ -n "$names" ] || { echo "broadcast listed no scenario names" >&2; exit 1; }
for name in $names; do
    echo "--> scenario: $name"
    cargo run --release -q -p tbm --example broadcast -- "$name" > /dev/null
done

echo "==> telemetry query smoke"
# The query example runs the fleet broadcast with the telemetry plane and
# asks typed questions of the compressed store; its own asserts cover
# compression and the brownout answer. On top, the rendered report must
# contain a non-empty query table (a header rule followed by data rows).
out="$(cargo run --release -q -p tbm --example query)"
echo "$out" | grep -q '^scan(metrics)' || { echo "query example printed no metrics table" >&2; exit 1; }
echo "$out" | grep -q -- '-----' || { echo "query example printed no table rule" >&2; exit 1; }
echo "$out" | grep -A2 -- '-----' | grep -vq '(no rows)' || { echo "query tables are empty" >&2; exit 1; }

echo "==> paper-claims gate"
# The six experiment binaries in release, stdout discarded: their
# `assert!(…, "claim: …")` lines are the gate.
for exp in exp_fig1 exp_fig2 exp_fig4 exp_fig5 exp_tab1 exp_claims; do
    echo "--> $exp"
    cargo run --release -q -p tbm-bench --bin "$exp" > /dev/null
done

echo "==> duplication audit"
# `once PATTERN DIR...` fails when PATTERN is written more than once under
# the DIRs (`perf` aside, which keeps its own fixtures).
once() {
    local hits
    hits="$(grep -rnF "$1" --include='*.rs' --exclude-dir=perf "${@:2}" || true)"
    [ "$(echo "$hits" | grep -c .)" -le 1 ] ||
        { echo "duplication audit: \`$1\` is written more than once:" >&2; echo "$hits" >&2; exit 1; }
}
# Set-up lives once, in `tbm_bench::scenario`: the stream-rename idiom and
# the balanced-names probe may not reappear in a test, example or `exp_*`.
for idiom in 'add_stream(name, stream' 'let mut by_shard'; do
    once "$idiom" tests examples crates/bench/src
done
# The seeded mixer and the circuit breaker live once (`tbm-core`,
# `tbm-blob`); every layer above reuses them.
for def in 'fn splitmix64' 'enum BreakerState'; do
    once "$def" crates/*/src
done
# A trace record costs one critical section: the tracer's ring mutex is
# locked at one site, never once per attribute.
once '.lock()' crates/obs/src/tracer.rs

echo "==> knob audit"
# A public builder or setter that nothing outside its crate sets is a
# constant, not an option: tests, examples, `exp_*`, the other crates and
# `perf` all count as callers. `audit CRATE FILE...` checks the FILEs'.
unset_knobs=0
audit() {
    local knob
    for knob in $(grep -ohE 'pub fn (with|set)_[a-z_]+' "${@:2}" | awk '{print $3}' | sort -u); do
        grep -rqE "[.:]$knob\(" --include='*.rs' --exclude-dir="$1" tests examples crates ||
            { echo "knob audit: $knob has no call site outside crates/$1/src" >&2; unset_knobs=1; }
    done
}
audit serve crates/serve/src/{server,shard,fleet,capacity}.rs
audit blob crates/blob/src/{fault,tiered}.rs
audit player crates/player/src/*.rs
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
