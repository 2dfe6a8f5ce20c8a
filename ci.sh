#!/usr/bin/env bash
# Local CI gate in two stages, the two jobs of .github/workflows/ci.yml:
#
#   ./ci.sh lint    formatting, clippy, the workspace tests, the chaos
#                   sweeps and property suites under a pinned seed,
#                   rustdoc with warnings as errors, and `cargo check`
#                   over every feature and target;
#   ./ci.sh gates   everything that needs the release binary: CLI smoke
#                   runs against the committed goldens, the parallel,
#                   metrics and store determinism gates, the tam, serve
#                   and distributed-campaign gates, and `modsoc_bench
#                   --quick` as a correctness smoke (its checks include
#                   BENCH_tam.json's deterministic packer fields);
#   ./ci.sh         both, lint first.
#
# Run from the repo root; exits nonzero on the first failure. The gates'
# scratch files (reports, daemon logs, stores) go to target/ci-gates/,
# which each gates run clears first and keeps when it fails.
#
# Opt-in extra:
#   MODSOC_BENCH_GATE=1 ./ci.sh   also runs the full benchmark
#                                 (`modsoc_bench`, every workload) and
#                                 compares it with
#                                 src/bin/modsoc_bench/baseline.json;
#                                 `--compare` exits 1 when a metric is
#                                 worse than its BENCHMARK.json bound.
#                                 Keep it off on noisy/shared machines.
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

  echo "== chaos and property suites (fixed seed)"
  # The chaos harness is seed-deterministic; PROPTEST_SEED pins the
  # vendored proptest streams on top so the whole gate is reproducible,
  # and a failing property case (the packed-cube differentials and the
  # lib-internal PODEM differentials against ReferencePodem among them)
  # reproduces under the same seed.
  PROPTEST_SEED=20080310 cargo test -q --test chaos --test parser_fuzz --test properties
  PROPTEST_SEED=20080310 cargo test -q -p modsoc-atpg --test proptests
  PROPTEST_SEED=20080310 cargo test -q -p modsoc-atpg --lib podem::

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

  echo "== CLI smoke runs"
  cargo build -q --release --bin modsoc --bin modsoc_bench
  ./target/release/modsoc --version
  ./target/release/modsoc index testdata/soc2.soc
  ./target/release/modsoc experiment soc2 --jobs 4 > "$workdir/soc2_smoke.txt"
  # The whole summary line, numbers included: a drift in T_mono, the
  # largest core's count, coverage or Eq. 2 fails here, not just a lost line.
  grep -qxF "monolithic ATPG: T_mono = 686 (max core 410), coverage 100.00%, eq.2 strict: true" \
    "$workdir/soc2_smoke.txt" \
    || { echo "FAIL: experiment soc2 monolithic summary drifted"; grep "monolithic" "$workdir/soc2_smoke.txt"; exit 1; }
  # The whole report and the deterministic metrics fields against committed
  # goldens: only SOC2 has runs above 512 patterns, so only it crosses a
  # fault-sim block boundary. Re-record them only for a change that means
  # to move the engine's output.
  diff testdata/experiment_soc2.golden "$workdir/soc2_smoke.txt" \
    || { echo "FAIL: experiment soc2 report drifted from testdata/experiment_soc2.golden"; exit 1; }
  # SOC2's monolithic run is the only one whose fault-sim sweeps span
  # hundreds of pool chunks (whole fanout-free regions each). 2 workers
  # is the benchmark's width and 3 split the chunks unevenly: the
  # counters must not notice either.
  for jobs in 1 2 3; do
    ./target/release/modsoc experiment soc2 --jobs "$jobs" --metrics "$workdir/m_soc2_j$jobs.json" > /dev/null
    diff testdata/metrics_soc2.golden <(grep -vE '"(sched|jobs)": |_ms":|"store_' "$workdir/m_soc2_j$jobs.json") \
      || { echo "FAIL: experiment soc2 --jobs $jobs metrics drifted from testdata/metrics_soc2.golden"; exit 1; }
  done
  # A 900-pattern cap trips inside the monolithic run's PODEM windows,
  # whose searches run on the pool: the partial report, its warning and
  # exit code 2 must not depend on --jobs.
  for jobs in 1 3; do
    rc=0
    ./target/release/modsoc experiment soc2 --max-patterns 900 --jobs "$jobs" \
      > "$workdir/cap_j$jobs.txt" 2> "$workdir/cap_j${jobs}_err.txt" || rc=$?
    [ "$rc" -eq 2 ] \
      || { echo "FAIL: experiment soc2 --max-patterns 900 --jobs $jobs exited $rc, not 2"; exit 1; }
  done
  cmp "$workdir/cap_j1.txt" "$workdir/cap_j3.txt" \
    || { echo "FAIL: capped experiment soc2 stdout differs between --jobs 1 and --jobs 3"; exit 1; }
  cmp "$workdir/cap_j1_err.txt" "$workdir/cap_j3_err.txt" \
    || { echo "FAIL: capped experiment soc2 stderr differs between --jobs 1 and --jobs 3"; exit 1; }
  ./target/release/modsoc analyze testdata/soc1.soc --exclude-chip-pins --measured-tmono 216 > "$workdir/soc1_smoke.txt"
  grep -q "45,183" "$workdir/soc1_smoke.txt" \
    || { echo "FAIL: soc1.soc analyze lost the Table 1 modular TDV (45,183)"; exit 1; }

  echo "== parallel determinism gate (--jobs 1 vs --jobs 4)"
  # The worker pool's contract: reports are byte-identical at any --jobs
  # value. Diverging output here means an order-dependent merge crept in.
  ./target/release/modsoc analyze testdata/soc2.soc --keep-going --jobs 1 > "$workdir/jobs1.txt"
  ./target/release/modsoc analyze testdata/soc2.soc --keep-going --jobs 4 > "$workdir/jobs4.txt"
  diff "$workdir/jobs1.txt" "$workdir/jobs4.txt" \
    || { echo "FAIL: analyze output diverges between --jobs 1 and --jobs 4"; exit 1; }
  ./target/release/modsoc experiment mini --jobs 1 > "$workdir/exp1.txt"
  ./target/release/modsoc experiment mini --jobs 4 > "$workdir/exp4.txt"
  diff "$workdir/exp1.txt" "$workdir/exp4.txt" \
    || { echo "FAIL: experiment output diverges between --jobs 1 and --jobs 4"; exit 1; }

  echo "== metrics determinism gate (counters identical at --jobs 1 vs --jobs 4)"
  # The metrics layer's contract: every report field except wall times
  # (*_ms), the sched objects and the jobs field itself is deterministic.
  # The serializer puts each volatile field on its own line so this filter
  # strips exactly the volatile subset.
  ./target/release/modsoc experiment mini --jobs 1 --metrics "$workdir/m1.json" > /dev/null
  ./target/release/modsoc experiment mini --jobs 4 --metrics "$workdir/m4.json" > /dev/null
  diff <(grep -vE '"(sched|jobs)": |_ms":|"store_' "$workdir/m1.json") \
       <(grep -vE '"(sched|jobs)": |_ms":|"store_' "$workdir/m4.json") \
    || { echo "FAIL: metrics counters diverge between --jobs 1 and --jobs 4"; exit 1; }
  # The same fields against a committed golden, so counter drift between
  # commits fails too (jobs-invariance alone cannot see it). Re-record the
  # golden only for a change that means to move the counters.
  diff testdata/metrics_mini.golden <(grep -vE '"(sched|jobs)": |_ms":|"store_' "$workdir/m1.json") \
    || { echo "FAIL: experiment mini metrics drifted from testdata/metrics_mini.golden"; exit 1; }

  echo "== tam co-optimizer gate (smoke + --jobs determinism)"
  # The rectangle packer's contract: the full comparison table is a pure
  # function of (SOC, width, chains, ceiling) — byte-identical at any
  # --jobs value — and the power-constrained variant stays feasible on a
  # reconstructed ITC'02 SOC.
  ./target/release/modsoc tam soc2 --width 16 > "$workdir/tam_soc2.txt"
  grep -q "soc2" "$workdir/tam_soc2.txt" \
    || { echo "FAIL: tam soc2 produced no comparison row"; cat "$workdir/tam_soc2.txt"; exit 1; }
  ./target/release/modsoc tam d695 --width 16 --power-ceiling 2000 > "$workdir/tam_d695.txt"
  grep -q "constrained" "$workdir/tam_d695.txt" \
    || { echo "FAIL: tam d695 produced no constrained column"; cat "$workdir/tam_d695.txt"; exit 1; }
  ./target/release/modsoc tam --width 16 --jobs 1 > "$workdir/tam_j1.txt"
  ./target/release/modsoc tam --width 16 --jobs 4 > "$workdir/tam_j4.txt"
  diff "$workdir/tam_j1.txt" "$workdir/tam_j4.txt" \
    || { echo "FAIL: tam table diverges between --jobs 1 and --jobs 4"; exit 1; }

  echo "== store cache determinism gate (cold vs warm, --jobs 1 and 4)"
  # The result store's contract: a warm run is byte-identical to the cold
  # one on stdout at any --jobs value, and every engine run (4 cores +
  # monolithic on soc2) is served from the cache.
  store="$workdir/store"
  ./target/release/modsoc experiment soc2 --jobs 4 --store "$store" > "$workdir/cold.txt" 2> "$workdir/cold_err.txt"
  grep -q "monolithic ATPG" "$workdir/cold.txt" \
    || { echo "FAIL: cold store run produced no monolithic summary"; exit 1; }
  grep -q "store: 0 hits, 5 misses, 5 writes" "$workdir/cold_err.txt" \
    || { echo "FAIL: cold run did not write 5 entries"; cat "$workdir/cold_err.txt"; exit 1; }
  for jobs in 1 4; do
    ./target/release/modsoc experiment soc2 --jobs "$jobs" --store "$store" \
      > "$workdir/warm$jobs.txt" 2> "$workdir/warm${jobs}_err.txt"
    grep -q "store: 5 hits, 0 misses" "$workdir/warm${jobs}_err.txt" \
      || { echo "FAIL: warm --jobs $jobs run missed the cache"; cat "$workdir/warm${jobs}_err.txt"; exit 1; }
    diff "$workdir/cold.txt" "$workdir/warm$jobs.txt" \
      || { echo "FAIL: warm --jobs $jobs report differs from the cold run"; exit 1; }
  done

  echo "== campaign resume gate"
  # A re-invoked campaign must skip every journaled unit.
  printf '%s' '{"schema":1,"name":"ci","units":[{"name":"m7","soc":"mini","seed":7},{"name":"m9","soc":"mini","seed":9}]}' > "$workdir/campaign.json"
  ./target/release/modsoc campaign "$workdir/campaign.json" --store "$store" > "$workdir/camp1.txt" 2>/dev/null
  grep -q " ok " "$workdir/camp1.txt" \
    || { echo "FAIL: first campaign run completed no units"; cat "$workdir/camp1.txt"; exit 1; }
  ./target/release/modsoc campaign "$workdir/campaign.json" --store "$store" > "$workdir/camp2.txt" 2>/dev/null
  [ "$(grep -c "skipped" "$workdir/camp2.txt")" -eq 2 ] \
    || { echo "FAIL: re-invoked campaign did not skip its journaled units"; cat "$workdir/camp2.txt"; exit 1; }

  echo "== serve gate (daemon parity, shedding, graceful drain)"
  # The service layer's contract: a served analyze is byte-identical to
  # the CLI, a mixed workload passes the loadgen corruption check, a
  # flooded daemon sheds with 503 (never hangs), and both shutdown paths
  # (POST /shutdown, SIGTERM) drain and exit 0.
  serve_store="$workdir/serve_store"
  ./target/release/modsoc serve --addr 127.0.0.1:0 --workers 2 --store "$serve_store" \
    > "$workdir/serve.log" 2>/dev/null &
  serve_pid=$!
  pids+=("$serve_pid")
  for _ in $(seq 1 50); do
    grep -q "listening on" "$workdir/serve.log" && break
    sleep 0.1
  done
  serve_addr="$(sed -n 's|.*http://||p' "$workdir/serve.log")"
  [ -n "$serve_addr" ] || { echo "FAIL: serve did not report its address"; exit 1; }
  ./target/release/modsoc analyze testdata/soc1.soc > "$workdir/serve_cli.txt"
  ./target/release/modsoc loadgen --addr "$serve_addr" --analyze-file testdata/soc1.soc \
    > "$workdir/serve_http.txt"
  diff "$workdir/serve_cli.txt" "$workdir/serve_http.txt" \
    || { echo "FAIL: served analyze diverges from CLI stdout"; exit 1; }
  ./target/release/modsoc loadgen --addr "$serve_addr" --requests 48 --concurrency 8 --seed 20080310 \
    > "$workdir/loadgen.txt"
  grep -q "zero-corruption check: PASS" "$workdir/loadgen.txt" \
    || { echo "FAIL: loadgen corruption check"; cat "$workdir/loadgen.txt"; exit 1; }
  ./target/release/modsoc loadgen --addr "$serve_addr" --shutdown > /dev/null
  wait "$serve_pid" \
    || { echo "FAIL: daemon did not exit 0 after POST /shutdown"; exit 1; }

  # A constrained second daemon must shed under flood and drain on SIGTERM.
  ./target/release/modsoc serve --addr 127.0.0.1:0 --workers 1 --queue 2 \
    > "$workdir/serve2.log" 2>/dev/null &
  serve2_pid=$!
  pids+=("$serve2_pid")
  for _ in $(seq 1 50); do
    grep -q "listening on" "$workdir/serve2.log" && break
    sleep 0.1
  done
  serve2_addr="$(sed -n 's|.*http://||p' "$workdir/serve2.log")"
  ./target/release/modsoc loadgen --addr "$serve2_addr" --flood 24 > "$workdir/flood.txt"
  grep -q "shed with 503" "$workdir/flood.txt" \
    || { echo "FAIL: flood report missing"; cat "$workdir/flood.txt"; exit 1; }
  grep -q "retry-after on all 503s: PASS" "$workdir/flood.txt" \
    || { echo "FAIL: 503s without Retry-After"; cat "$workdir/flood.txt"; exit 1; }
  kill -TERM "$serve2_pid"
  wait "$serve2_pid" \
    || { echo "FAIL: daemon did not exit 0 after SIGTERM"; exit 1; }

  echo "== serve keep-alive parity smoke (transport must never change bytes)"
  # One keep-alive + batching daemon serves the same seeded mixed workload
  # over both transports; the per-request response hashes must match line
  # for line, and the persistent client must actually reuse its sockets.
  ka_store="$workdir/ka_store"
  ./target/release/modsoc serve --addr 127.0.0.1:0 --workers 2 --keep-alive --batch-max 4 \
    --store "$ka_store" > "$workdir/serve3.log" 2>/dev/null &
  serve3_pid=$!
  pids+=("$serve3_pid")
  for _ in $(seq 1 50); do
    grep -q "listening on" "$workdir/serve3.log" && break
    sleep 0.1
  done
  serve3_addr="$(sed -n 's|.*http://||p' "$workdir/serve3.log")"
  [ -n "$serve3_addr" ] || { echo "FAIL: keep-alive serve did not report its address"; exit 1; }
  ./target/release/modsoc loadgen --addr "$serve3_addr" --requests 48 --concurrency 8 --seed 20080310 \
    --bodies-out "$workdir/bodies_close.txt" > /dev/null
  ./target/release/modsoc loadgen --addr "$serve3_addr" --requests 48 --concurrency 8 --seed 20080310 \
    --keep-alive --bodies-out "$workdir/bodies_ka.txt" > "$workdir/loadgen_ka.txt"
  diff "$workdir/bodies_close.txt" "$workdir/bodies_ka.txt" \
    || { echo "FAIL: response bodies differ between close and keep-alive transports"; exit 1; }
  grep -q "zero-corruption check: PASS" "$workdir/loadgen_ka.txt" \
    || { echo "FAIL: keep-alive loadgen corruption check"; cat "$workdir/loadgen_ka.txt"; exit 1; }
  grep -qE "keep-alive: 48 requests over [0-9]+ connections \([1-9][0-9]* reused\)" "$workdir/loadgen_ka.txt" \
    || { echo "FAIL: keep-alive transport reported no socket reuse"; cat "$workdir/loadgen_ka.txt"; exit 1; }
  ./target/release/modsoc loadgen --addr "$serve3_addr" --shutdown > /dev/null
  wait "$serve3_pid" \
    || { echo "FAIL: keep-alive daemon did not exit 0 after POST /shutdown"; exit 1; }

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
    > "$workdir/serve4.log" 2>/dev/null &
  serve4_pid=$!
  pids+=("$serve4_pid")
  for _ in $(seq 1 50); do
    grep -q "listening on" "$workdir/serve4.log" && break
    sleep 0.1
  done
  serve4_addr="$(sed -n 's|.*http://||p' "$workdir/serve4.log")"
  [ -n "$serve4_addr" ] || { echo "FAIL: distributed-gate serve did not report its address"; exit 1; }

  # Two concurrent workers; kill one mid-run (SIGKILL: no cleanup, its
  # claim must simply stop being renewed and expire).
  ./target/release/modsoc campaign "$workdir/dist.json" --store-url "http://$serve4_addr" \
    --owner w1 --claim-lease-ms 2000 > "$workdir/dist_w1.txt" 2>/dev/null &
  w1_pid=$!
  pids+=("$w1_pid")
  ./target/release/modsoc campaign "$workdir/dist.json" --store-url "http://$serve4_addr" \
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
  ./target/release/modsoc campaign "$workdir/dist.json" --store-url "http://$serve4_addr" \
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
  ./target/release/modsoc loadgen --addr "$serve4_addr" --dump-metrics > "$workdir/dist_metrics.json"
  dist_writes="$(sed -n 's/.*"store":{[^}]*"writes":\([0-9]*\).*/\1/p' "$workdir/dist_metrics.json")"
  [ "$dist_writes" = "$base_writes" ] \
    || { echo "FAIL: shared store writes ($dist_writes) != single-run writes ($base_writes): duplicated work"; exit 1; }
  ./target/release/modsoc loadgen --addr "$serve4_addr" --shutdown > /dev/null
  wait "$serve4_pid" \
    || { echo "FAIL: distributed-gate daemon did not exit 0 after POST /shutdown"; exit 1; }
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

  if [[ "${MODSOC_BENCH_GATE:-0}" == "1" ]]; then
    echo "== benchmark gate (modsoc_bench vs src/bin/modsoc_bench/baseline.json)"
    ./target/release/modsoc_bench --json "$workdir/bench.json"
    ./target/release/modsoc_bench --compare src/bin/modsoc_bench/baseline.json "$workdir/bench.json"
  else
    echo "== benchmark gate skipped (set MODSOC_BENCH_GATE=1 to enable)"
  fi
}

if [[ "$stage" != gates ]]; then
  lint
fi
if [[ "$stage" != lint ]]; then
  gates
fi
echo "CI gate passed."
