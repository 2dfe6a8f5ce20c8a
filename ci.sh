#!/usr/bin/env bash
# Local CI gate in two stages, the two jobs of .github/workflows/ci.yml:
#
#   ./ci.sh lint    formatting, clippy, the workspace tests, the
#                   workspace tests again under a pinned proptest seed,
#                   rustdoc with warnings as errors, and `cargo check`
#                   over every feature and target;
#   ./ci.sh gates   what a test cannot drive on its own, on the release
#                   binary: the distributed-campaign gate (racing
#                   workers, SIGKILL and lease expiry) and `modsoc_bench
#                   --quick` as a correctness smoke (its checks include
#                   BENCH_tam.json's deterministic packer fields);
#   ./ci.sh         both, lint first.
#
# The goldens, the --jobs, metrics and store determinism checks and the
# serve, tam and CLI smoke runs are tests: `cargo test -q` runs them
# (tests/cli.rs and tests/serve_chaos.rs).
#
# Run from the repo root; exits nonzero on the first failure. The gates'
# scratch files (reports, daemon logs, stores) go to target/ci-gates/,
# which each gates run clears first and keeps when it fails.
set -euo pipefail
cd "$(dirname "$0")"

stage="${1:-all}"
case "$stage" in
  lint | gates | all) ;;
  *)
    echo "usage: ./ci.sh [lint|gates]" >&2
    exit 1
    ;;
esac

workdir=""
pids=()
cleanup() {
  local status=$?
  # A failed gate must not leave daemons (or campaign workers) behind:
  # a surviving serve process keeps its port bound and makes the next
  # local run fail on bind. Kill every registered background pid; drop
  # the scratch directory only when everything passed.
  for pid in ${pids[@]+"${pids[@]}"}; do
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  if [[ -n "$workdir" && $status -eq 0 ]]; then
    rm -rf "$workdir"
  fi
}
trap cleanup EXIT

lint() {
  echo "== cargo fmt --check"
  cargo fmt --all -- --check

  echo "== cargo clippy (warnings are errors)"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "== cargo test (workspace)"
  cargo test -q --workspace

  echo "== cargo test (workspace, fixed proptest seed)"
  # The same suites again with PROPTEST_SEED pinning every vendored
  # proptest stream (the chaos harness is seed-deterministic on its
  # own), so a failing property case reproduces under the same seed.
  # The whole workspace runs, so no property suite can be left off.
  PROPTEST_SEED=20080310 cargo test -q --workspace

  echo "== cargo doc (warnings are errors)"
  # A doc link to a deleted or private item fails here.
  RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline

  echo "== cargo check (every feature, every target)"
  # A cargo feature that cannot build fails here, not on first use.
  cargo check -q --offline --workspace --all-features --all-targets
}

gates() {
  workdir="target/ci-gates"
  rm -rf "$workdir"
  mkdir -p "$workdir"

  cargo build -q --release --bin modsoc --bin modsoc_bench

  echo "== distributed campaign gate (two local workers; two workers, one daemon, kill + resume)"
  # The claim contract: concurrent `campaign` workers over one spec and
  # one store (`--store DIR` or `--store-url`) partition the units via
  # claims (each unit's engine work runs exactly once — store write-count
  # parity with a single local run),
  # a worker killed mid-run loses nothing (its lease expires and peers or
  # a rerun take over), and the merged journal + store sweep clean.
  printf '%s' '{"schema":1,"name":"dist","units":[{"name":"d1","soc":"mini","seed":31},{"name":"d2","soc":"mini","seed":37},{"name":"d3","soc":"mini","seed":41},{"name":"d4","soc":"mini","seed":43}]}' > "$workdir/dist.json"
  # Local baseline: the engine-write cost of one full single-process run.
  base_store="$workdir/dist_base"
  ./target/release/modsoc campaign "$workdir/dist.json" --store "$base_store" \
    > "$workdir/dist_base.txt" 2> "$workdir/dist_base_err.txt"
  base_writes="$(sed -n 's/.*misses, \([0-9]*\) writes.*/\1/p' "$workdir/dist_base_err.txt")"
  [ -n "$base_writes" ] && [ "$base_writes" -gt 0 ] \
    || { echo "FAIL: baseline campaign reported no store writes"; cat "$workdir/dist_base_err.txt"; exit 1; }

  # Two local workers racing over one fresh store directory claim units
  # through it the same way: between them they write exactly what the
  # single run wrote.
  for owner in r1 r2; do
    ./target/release/modsoc campaign "$workdir/dist.json" --store "$workdir/dist_race" \
      --owner "$owner" > "$workdir/dist_$owner.txt" 2> "$workdir/dist_${owner}_err.txt" &
    pids+=("$!")
  done
  wait "${pids[-2]}" && wait "${pids[-1]}" \
    || { echo "FAIL: a local racing worker did not complete"; cat "$workdir"/dist_r?.txt; exit 1; }
  race_writes=0
  for owner in r1 r2; do
    w="$(sed -n 's/.*misses, \([0-9]*\) writes.*/\1/p' "$workdir/dist_${owner}_err.txt")"
    race_writes=$((race_writes + w))
  done
  [ "$race_writes" = "$base_writes" ] \
    || { echo "FAIL: two local workers wrote $race_writes entries, one run writes $base_writes: duplicated work"; exit 1; }

  dist_store="$workdir/dist_store"
  ./target/release/modsoc serve --addr 127.0.0.1:0 --workers 2 --store "$dist_store" \
    > "$workdir/serve.log" 2>/dev/null &
  serve_pid=$!
  pids+=("$serve_pid")
  for _ in $(seq 1 50); do
    grep -q "listening on" "$workdir/serve.log" && break
    sleep 0.1
  done
  serve_addr="$(sed -n 's|.*http://||p' "$workdir/serve.log")"
  [ -n "$serve_addr" ] || { echo "FAIL: serve did not report its address"; exit 1; }

  # Two concurrent workers; kill one mid-run (SIGKILL: no cleanup, its
  # claim must simply stop being renewed and expire).
  ./target/release/modsoc campaign "$workdir/dist.json" --store-url "http://$serve_addr" \
    --owner w1 --claim-lease-ms 2000 > "$workdir/dist_w1.txt" 2>/dev/null &
  w1_pid=$!
  pids+=("$w1_pid")
  ./target/release/modsoc campaign "$workdir/dist.json" --store-url "http://$serve_addr" \
    --owner w2 --claim-lease-ms 2000 > "$workdir/dist_w2.txt" 2>/dev/null &
  w2_pid=$!
  pids+=("$w2_pid")
  sleep 0.4
  kill -9 "$w2_pid" 2>/dev/null || true
  wait "$w2_pid" 2>/dev/null || true
  wait "$w1_pid" \
    || { echo "FAIL: surviving worker did not complete the campaign"; cat "$workdir/dist_w1.txt"; exit 1; }
  # Rerun the killed worker: everything is journaled by now, so it must
  # skip all units and recompute nothing.
  ./target/release/modsoc campaign "$workdir/dist.json" --store-url "http://$serve_addr" \
    --owner w2-retry --claim-lease-ms 2000 > "$workdir/dist_resume.txt" 2> "$workdir/dist_resume_err.txt" \
    || { echo "FAIL: rerun of the killed worker did not complete"; cat "$workdir/dist_resume.txt"; exit 1; }
  [ "$(grep -c "skipped" "$workdir/dist_resume.txt")" -eq 4 ] \
    || { echo "FAIL: merged journal incomplete after kill + rerun"; cat "$workdir/dist_resume.txt"; exit 1; }
  # Byte parity: the remote resume report must match a local resume of the
  # baseline store line for line.
  ./target/release/modsoc campaign "$workdir/dist.json" --store "$base_store" \
    > "$workdir/dist_base2.txt" 2>/dev/null
  diff "$workdir/dist_base2.txt" "$workdir/dist_resume.txt" \
    || { echo "FAIL: remote campaign report diverges from the local-store run"; exit 1; }
  # Write parity: the daemon's store saw exactly one full run's writes —
  # zero units were computed twice across both workers and the rerun.
  ./target/release/modsoc loadgen --addr "$serve_addr" --dump-metrics > "$workdir/dist_metrics.json"
  dist_writes="$(sed -n 's/.*"store":{[^}]*"writes":\([0-9]*\).*/\1/p' "$workdir/dist_metrics.json")"
  [ "$dist_writes" = "$base_writes" ] \
    || { echo "FAIL: shared store writes ($dist_writes) != single-run writes ($base_writes): duplicated work"; exit 1; }
  ./target/release/modsoc loadgen --addr "$serve_addr" --shutdown > /dev/null
  wait "$serve_pid" \
    || { echo "FAIL: daemon did not exit 0 after POST /shutdown"; exit 1; }
  # The store the daemon leaves behind sweeps clean, and a size-bounded GC
  # pass keeps it clean (journals are never collected).
  ./target/release/modsoc store verify "$dist_store" \
    || { echo "FAIL: distributed store has corrupt entries"; exit 1; }
  ./target/release/modsoc store gc "$dist_store" --max-bytes 8192 > "$workdir/dist_gc.txt" 2>/dev/null
  grep -q "store gc: scanned" "$workdir/dist_gc.txt" \
    || { echo "FAIL: store gc produced no report"; cat "$workdir/dist_gc.txt"; exit 1; }
  ./target/release/modsoc store verify "$dist_store" \
    || { echo "FAIL: store corrupt after gc"; exit 1; }

  echo "== modsoc_bench --quick (every workload once, with its checks)"
  # A correctness smoke, not a timing gate: each workload checks its own
  # results (report digests, store traffic, response bodies, the width-16
  # packer rows of BENCH_tam.json) and the run exits 1 when one fails.
  ./target/release/modsoc_bench --quick > "$workdir/bench_quick.txt" \
    || { echo "FAIL: modsoc_bench --quick"; cat "$workdir/bench_quick.txt"; exit 1; }
}

if [[ "$stage" != gates ]]; then
  lint
fi
if [[ "$stage" != lint ]]; then
  gates
fi
echo "CI gate passed."
