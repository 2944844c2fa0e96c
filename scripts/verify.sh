#!/usr/bin/env bash
# Repo verification gate: release build, full test suite, lint-clean.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
# The vendored rand stand-ins: the seekable ChaCha8 keystream and its
# AVX2 multi-block refill must equal the scalar block function.
cargo test -q --offline --manifest-path vendor/rand/Cargo.toml
cargo test -q --offline --manifest-path vendor/rand_chacha/Cargo.toml
cargo clippy --all-targets -- -D warnings

# API docs must build warning-free (broken intra-doc links and malformed
# doc comments fail here, not on docs.rs).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Fault-matrix campaign: every single injected fault must degrade
# gracefully (no panic, no hang — hence the hard timeout). Small config
# keeps this a few seconds even on one core.
timeout 120 ./target/release/zskip faults --hw 8 --json > /dev/null

# Scheduler regression guard: a reduced hosted workload under both
# steppers. Fails on divergence from the dense oracle, on the event
# scheduler not engaging (no parks / no idle jumps), or on it timing
# slower than dense — the win is structural on this workload, so the
# wall-clock comparison holds even on a noisy box.
timeout 300 ./target/release/sim_bench --check

# Kernel dispatch matrix: the SIMD bit-exactness property tests must pass
# both at the host's native tier and pinned to the scalar oracle tier
# (the tests themselves iterate every reachable tier; pinning the env
# override exercises the ZSKIP_KERNEL fallback path end to end).
cargo test -q -p zskip-nn --test kernel_tiers
ZSKIP_KERNEL=scalar cargo test -q -p zskip-nn --test kernel_tiers

# Kernel-tier performance gate: every SIMD tier must beat scalar on the
# VGG-shaped reference layers, and the scratch arena's steady-state
# forward pass must perform zero heap allocations.
timeout 300 ./target/release/kernel_bench --check > /dev/null

# Serving-daemon smoke: a request burst plus shutdown through the wire
# protocol must drain cleanly (exit 0, every request answered ok), and a
# protocol-breaking line must make the daemon exit non-zero.
serve_out=$(timeout 120 ./target/release/zskip serve --hw 32 --backend cpu <<'EOF'
{"op":"infer","id":"v1","seed":3}
{"op":"infer","id":"v2","seed":4}
{"op":"infer","id":"v3","seed":5}
{"op":"stats"}
{"op":"shutdown"}
EOF
)
[ "$(printf '%s\n' "$serve_out" | grep -c '"ok":true')" -ge 5 ] \
  || { echo "verify: serve smoke missing ok responses"; exit 1; }
printf '%s\n' "$serve_out" | grep -q '"op":"shutdown","draining":true' \
  || { echo "verify: serve smoke missing shutdown ack"; exit 1; }
if printf 'this is not json\n' | timeout 120 ./target/release/zskip serve --hw 32 --backend cpu > /dev/null; then
  echo "verify: serve must exit non-zero on a protocol error"; exit 1
fi

# Multi-instance sharding smoke: a 4-instance layer-pipelined batch must
# run end to end, stay bit-exact vs the golden model (infer asserts it),
# and report the placement it resolved.
shard_out=$(timeout 300 ./target/release/zskip batch --hw 32 --n 4 --instances 4 --placement pipeline)
printf '%s\n' "$shard_out" | grep -q 'pipeline placement' \
  || { echo "verify: sharded batch did not report pipeline placement"; exit 1; }
timeout 300 ./target/release/zskip infer --hw 32 --instances 4 --placement pipeline > /dev/null

# Throughput gates: the daemon's queue + adaptive batcher must deliver
# >= 0.9x the raw batch engine on the same offered burst, and the
# placement scheduler must hit its simulated-time floors (image-parallel
# >= 2.5x at 4 instances; pipeline beats image on single-image latency).
timeout 300 ./target/release/batch_bench --check

# Graph-network smoke: the in-repo ResNet-18 spec must load, plan and run
# end to end on the cpu backend (infer asserts bit-exactness vs the
# golden DAG oracle internally), and `analyze` must walk the same DAG.
timeout 300 ./target/release/zskip infer --network specs/resnet18.json --hw 32 --backend cpu > /dev/null
analyze_out=$(timeout 300 ./target/release/zskip analyze --network specs/resnet18.json)
printf '%s\n' "$analyze_out" | grep -q 'branch point' \
  || { echo "verify: analyze --network did not report the residual branch points"; exit 1; }

# Cached stats plan: on one worker, images 2-4 of a cpu batch replay the
# statistics the first image recorded, so every per-image cycle line
# must equal the model backend's, which recomputes them per image.
cpu_lines=$(timeout 300 ./target/release/zskip batch --network specs/resnet18.json --hw 32 --n 4 --workers 1 --backend cpu | grep '^  image')
model_lines=$(timeout 300 ./target/release/zskip batch --network specs/resnet18.json --hw 32 --n 4 --workers 1 --backend model | grep '^  image')
[ "$(printf '%s\n' "$cpu_lines" | wc -l)" -eq 4 ] \
  || { echo "verify: cpu batch did not print 4 image lines"; exit 1; }
[ "$cpu_lines" = "$model_lines" ] \
  || { echo "verify: cpu (cached stats) and model per-image cycle lines differ"; exit 1; }

# Malformed specs must fail closed with the stable machine-readable code
# and exit 2 (scripted callers branch on both).
bad_spec=$(mktemp -t zskip-badspec-XXXXXX.json)
printf '{"name": 1}\n' > "$bad_spec"
set +e
bad_out=$(timeout 120 ./target/release/zskip infer --network "$bad_spec" 2>&1)
bad_rc=$?
set -e
rm -f "$bad_spec"
[ "$bad_rc" -eq 2 ] || { echo "verify: malformed spec must exit 2 (got $bad_rc)"; exit 1; }
printf '%s\n' "$bad_out" | grep -q 'error\[spec.invalid\]' \
  || { echo "verify: malformed spec missing the spec.invalid error code"; exit 1; }

# Autotuner smoke: a tiny-budget deterministic tune must emit a loadable
# artifact, and loading it back through --config must run end to end
# (infer asserts bit-exactness vs the golden model internally).
tune_out=$(mktemp -t zskip-tuned-XXXXXX.json)
timeout 300 ./target/release/zskip tune --objective cycles --space hls --budget 8 --out "$tune_out" > /dev/null
timeout 300 ./target/release/zskip infer --hw 32 --config "$tune_out" > /dev/null
rm -f "$tune_out"

# Autotuner gates: every objective's tuned config must score no worse
# than the default, the cycles search must match/beat the best
# hand-picked HLS variant, at least one software objective must improve
# >= 10%, and the same-seed rerun must be byte-identical.
timeout 300 ./target/release/tune_bench --check
echo "verify: OK"
