#!/usr/bin/env bash
# Tier-1 verification: formatting, lints, build, tests — fully offline.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

# Smoke outputs (bench JSON, machine lint report, waveform dir) go to a
# fixed, git-ignored directory under target/, so CI can upload them as
# artifacts after the run.
out=target/verify
rm -rf "$out"
mkdir -p "$out"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Doc links to renamed or deleted items fail here instead of rotting.
echo "== cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo build --release"
cargo build --workspace --release --offline

# Every test target runs here, once. Among them: the width-sweep
# differential matrix (differential, tape_differential, properties: 1/64/
# 128/256 lanes, bit-exact), the seeded-miscompile suite (tape_miscompile),
# golden waveforms (golden, trace), the parser mutation fuzz (parser_fuzz)
# and serve lane packing vs serial (pe-serve's differential).
echo "== cargo test (workspace, every test target)"
cargo test --workspace --release --offline -q

echo "== wide bench smoke at 128 lanes (lane digests verified)"
cargo run -p pe-bench --release --offline --bin wide -- --scale test --jobs 2 \
  --lanes 128 --out "$out/BENCH_wide_128.json"
grep -q '"lanes": 128' "$out/BENCH_wide_128.json"

echo "== wide bench smoke, all widths (lane digests verified, BENCH_wide.json)"
cargo run -p pe-bench --release --offline --bin wide -- --scale test --jobs 2 \
  --out "$out/BENCH_wide.json"

echo "== per-width columns present in BENCH_wide.json"
grep -q '"tape_seconds"' "$out/BENCH_wide.json"
grep -q '"tape_speedup"' "$out/BENCH_wide.json"
grep -q '"lane_widths": \[64, 128, 256\]' "$out/BENCH_wide.json"
grep -q '"lanes": 64' "$out/BENCH_wide.json"
grep -q '"lanes": 128' "$out/BENCH_wide.json"
grep -q '"lanes": 256' "$out/BENCH_wide.json"
grep -q '"settle_mlcps"' "$out/BENCH_wide.json"
grep -q '"geomean_settle_mlcps"' "$out/BENCH_wide.json"

echo "== pass-stat columns present in BENCH_wide.json (verified optimization pipeline)"
grep -q '"tape_pre_instructions"' "$out/BENCH_wide.json"
grep -q '"tape_post_instructions"' "$out/BENCH_wide.json"
grep -q '"opt_seconds"' "$out/BENCH_wide.json"
grep -q '"opt_speedup"' "$out/BENCH_wide.json"
grep -q '"geomean_opt_speedup"' "$out/BENCH_wide.json"

echo "== trace bench smoke (waveform integral invariant, serial vs tape waveform equality, BENCH_trace.json)"
cargo run -p pe-bench --release --offline --bin trace -- --scale test --jobs 2 \
  --out "$out/BENCH_trace.json" --waveform-dir "$out/waveforms"
grep -q '"engine": "tape"' "$out/BENCH_trace.json"

# The lint run also prepares and validates every served tape, and exits
# 1 if one fails; its --machine lines carry the plain-tape certificates.
echo "== lint gate with tape certificates (--deny all --machine) vs locked fixture"
cargo run -p pe-bench --release --offline --quiet --bin lint -- \
  --scale test --jobs 2 --deny all --machine 2>/dev/null > "$out/LINT_machine.txt"
diff -u tests/golden/lint_machine.txt "$out/LINT_machine.txt"

echo "== tape certificates validated for all suite designs"
[ "$(grep -c ' tape_validated=true ' "$out/LINT_machine.txt")" -eq 7 ]
! grep -q 'tape_validated=false' "$out/LINT_machine.txt"

# tests/certify.rs diffs the served tapes against this fixture; a bless
# must not lock a tape the validator rejected.
echo "== served-tape fixture holds 7 validated certificates"
[ "$(grep -c ' tape_validated=true ' tests/golden/served_tapes.txt)" -eq 7 ]
! grep -q 'tape_validated=false' tests/golden/served_tapes.txt

echo "== serve smoke (stdio transport: ping, submit, drained shutdown)"
serve_out=$(printf 'ping\nsubmit id=smoke design=Bubble_Sort cycles=64 seed=1\nshutdown\n' \
  | cargo run -p pe-serve --release --offline --quiet -- --transport stdio)
grep -q '^event=pong$' <<<"$serve_out"
grep -q '^event=result req=smoke ' <<<"$serve_out"
grep -q 'cert_bits=' <<<"$serve_out"
grep -q '^event=bye ' <<<"$serve_out"

echo "== serve admission smoke (unsound design rejected before simulation)"
serve_admit=$(printf 'submit id=evil design=Defect_Uninit_Reg cycles=64 seed=1\nshutdown\n' \
  | cargo run -p pe-serve --release --offline --quiet -- --transport stdio)
grep -q '^event=error req=evil code=unsound_design ' <<<"$serve_admit"
! grep -q '^event=result' <<<"$serve_admit"

echo "verify: OK"
