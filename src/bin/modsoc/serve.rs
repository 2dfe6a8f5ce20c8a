//! `modsoc serve` and `modsoc loadgen`: the long-lived ATPG service
//! daemon and the seeded load generator that checks it.

use std::collections::BTreeMap;
use std::time::Duration;

use modsoc::analysis::serve::{http_request, HttpClient, HttpResponse, ServeConfig, Server};

use crate::{read_file, write_file, Args, CliError, RunStatus};

/// Best-effort signal dispositions. The bin target carries the
/// workspace's only `unsafe` blocks: `signal(2)` registrations (no libc
/// crate under the offline dependency policy). For the serve daemon's
/// graceful drain, the SIGINT/SIGTERM handler just sets an atomic flag
/// — the only async-signal-safe thing worth doing — and a watcher
/// thread turns the flag into [`ServerHandle::shutdown`].
#[cfg(unix)]
pub(crate) mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `on_signal` only stores to an atomic, which is
        // async-signal-safe, and lives for the whole program.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// Put back the default SIGPIPE disposition (terminate) that the
    /// Rust runtime replaces with "ignore".
    pub fn default_sigpipe() {
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: SIG_DFL installs no handler; the call only changes
        // how the kernel treats the signal.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

/// Run the long-lived ATPG service daemon (see `DESIGN.md` §13).
///
/// Prints the bound address (`--addr 127.0.0.1:0` picks an ephemeral
/// port) on stdout and serves until SIGINT/SIGTERM or `POST /shutdown`,
/// then drains admitted requests and exits 0.
pub(crate) fn serve(a: &Args) -> Result<RunStatus, CliError> {
    let d = ServeConfig::default();
    let config = ServeConfig {
        addr: a.get("--addr").map_or(d.addr, String::from),
        workers: a.num_or("--workers", d.workers)?,
        queue_capacity: a.num_or("--queue", d.queue_capacity)?,
        max_connections: a.num_or("--max-conns", d.max_connections)?,
        max_body_bytes: a.num_or("--max-body-bytes", d.max_body_bytes)?,
        max_request_ms: a.num_or("--request-timeout-ms", d.max_request_ms)?,
        read_timeout: a.ms_or("--read-timeout-ms", d.read_timeout)?,
        write_timeout: a.ms_or("--write-timeout-ms", d.write_timeout)?,
        retry_after_secs: a.num_or("--retry-after-secs", d.retry_after_secs)?,
        jobs: a.jobs()?,
        store: a.store()?,
        store_read: !a.has("--no-store-read"),
        keep_alive: a.has("--keep-alive"),
        keep_alive_max_requests: a.num_or("--keep-alive-max", d.keep_alive_max_requests)?,
        idle_timeout: a.ms_or("--idle-timeout-ms", d.idle_timeout)?,
        batch_max: a.num_or("--batch-max", d.batch_max)?,
        batch_window: a.ms_or("--batch-window-ms", d.batch_window)?,
    };
    let requested = config.addr.clone();
    let server = Server::bind(config).map_err(|e| format!("binding {requested}: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Scripts (the CI serve gate) parse this line for the ephemeral
    // port, so flush it before blocking in the accept loop.
    println!("modsoc serve listening on http://{addr}");
    {
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    let handle = server.handle();
    #[cfg(unix)]
    {
        sig::install();
        let handle = handle.clone();
        std::thread::spawn(move || loop {
            if sig::SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst) {
                handle.shutdown();
                return;
            }
            if handle.is_shutdown() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
    let snapshot = server.run().map_err(|e| e.to_string())?;
    use modsoc::metrics::Counter;
    eprintln!(
        "serve: drained after {} requests ({} shed, {} coalesce hits, {} deadline trips, {} panics)",
        snapshot.counter(Counter::ServeRequests),
        snapshot.counter(Counter::ServeShed),
        snapshot.counter(Counter::ServeCoalesceHits),
        snapshot.counter(Counter::ServeDeadlineTrips),
        snapshot.counter(Counter::ServePanics),
    );
    eprintln!(
        "serve: {} keep-alive reuses, {} batches covering {} units, lanes light/heavy {}/{}",
        snapshot.counter(Counter::ServeKeepAliveReuses),
        snapshot.counter(Counter::ServeBatches),
        snapshot.counter(Counter::ServeBatchedUnits),
        snapshot.counter(Counter::ServeLaneLight),
        snapshot.counter(Counter::ServeLaneHeavy),
    );
    Ok(RunStatus::Complete)
}

/// Advance an xorshift64 state (the workload mix generator; seeded,
/// reproducible).
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One loadgen request outcome.
struct LoadgenOutcome {
    /// Workload index — recovers deterministic ordering after the
    /// work-stealing workers scramble completion order.
    index: usize,
    status: u16,
    latency: Duration,
    class: &'static str,
    /// Whether a 503 carried the mandatory `Retry-After` header.
    retry_after_ok: bool,
    /// 503 retries spent before this outcome settled.
    retries: u64,
    /// SHA-256 of the response body (`io-error` on transport failure) —
    /// every `hot` 200 must carry the same one (one engine result fanned
    /// out by coalescing and the store), and the keep-alive parity smoke
    /// diffs these across transport modes.
    body_sha: String,
}

/// The loadgen client side of one worker: either a persistent
/// keep-alive [`HttpClient`] or the one-connection-per-request
/// path, so the same workload can measure both.
struct Transport {
    addr: String,
    client: Option<HttpClient>,
}

impl Transport {
    fn new(addr: &str, keep_alive: bool) -> Result<Transport, String> {
        let client = if keep_alive {
            Some(HttpClient::new(addr, Duration::from_secs(60)).map_err(|e| e.to_string())?)
        } else {
            None
        };
        Ok(Transport {
            addr: addr.to_string(),
            client,
        })
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        match &mut self.client {
            Some(c) => c.request(method, path, body),
            None => http_request(&self.addr, method, path, body, Duration::from_secs(60)),
        }
    }

    /// (requests, connects, reused) for the keep-alive client; zeros in
    /// one-shot mode.
    fn stats(&self) -> (u64, u64, u64) {
        self.client.as_ref().map_or((0, 0, 0), HttpClient::stats)
    }
}

/// A `POST /experiment` body for the mini SOC at `seed`.
fn mini_experiment(seed: u64) -> String {
    format!("{{\"soc\": \"mini\", \"seed\": {seed}, \"timeout_ms\": 20000}}")
}

/// Attempts per request: the first send plus up to four seeded-backoff
/// retries when the server sheds with `503` + `Retry-After`.
const LOADGEN_MAX_ATTEMPTS: u64 = 5;

fn loadgen_request(transport: &mut Transport, seed: u64, i: usize, salt: u64) -> LoadgenOutcome {
    let mut rng = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64 + 1);
    let roll = xorshift(&mut rng) % 100;
    // Mix: 40% hot (identical unit: store hits + coalescing), 25% cold
    // (unique seeds), 15% duplicate-burst (identical within the run but
    // distinct from `hot`), 10% oversized (413), 10% analyze text.
    let (class, path, body) = if roll < 40 {
        ("hot", "/experiment", mini_experiment(seed))
    } else if roll < 65 {
        let unique = seed
            .wrapping_add(1000)
            .wrapping_add(xorshift(&mut rng) % 32);
        ("cold", "/experiment", mini_experiment(unique))
    } else if roll < 80 {
        (
            "dup",
            "/experiment",
            mini_experiment(seed.wrapping_add(salt)),
        )
    } else if roll < 90 {
        ("oversized", "/analyze", "x".repeat(2 * 1024 * 1024))
    } else {
        (
            "analyze",
            "/analyze",
            "{\"soc\": \"soc demo\\ncore a i=4 o=3 b=0 s=10 t=50\\ncore b i=2 o=2 b=0 s=8 t=30\\n\", \"format\": \"text\"}"
                .to_string(),
        )
    };
    let started = std::time::Instant::now();
    let mut retries = 0u64;
    let resp = loop {
        let resp = transport.send("POST", path, Some(&body));
        match resp {
            // A tagged shed is advice, not failure: honor Retry-After
            // with seeded jitter so the retry herd spreads out, then
            // re-submit. Untagged 503s stay terminal (and flagged).
            Ok(r)
                if r.status == 503
                    && retries + 1 < LOADGEN_MAX_ATTEMPTS
                    && r.header("retry-after").is_some() =>
            {
                let after_ms = r
                    .header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .map_or(100, |s| (s * 1000).min(400));
                retries += 1;
                std::thread::sleep(Duration::from_millis(after_ms + xorshift(&mut rng) % 200));
            }
            other => break other,
        }
    };
    let latency = started.elapsed();
    let sha = |bytes: &[u8]| modsoc::store::sha256::hex(&modsoc::store::sha256::digest(bytes));
    match resp {
        Ok(r) => LoadgenOutcome {
            index: i,
            status: r.status,
            latency,
            class,
            retry_after_ok: r.status != 503 || r.header("retry-after").is_some(),
            retries,
            body_sha: sha(&r.body),
        },
        Err(_) => LoadgenOutcome {
            index: i,
            status: 0,
            latency,
            class,
            retry_after_ok: true,
            retries,
            body_sha: "io-error".to_string(),
        },
    }
}

/// Nearest-rank percentile (milliseconds) over an ascending-sorted
/// sample: the smallest value with at least `ceil(p * n)` observations
/// at or below it. The previous interpolated-index rounding overshot on
/// small samples (p50 of a 2-sample set returned the *larger* value;
/// p99 of 99 samples skipped the true rank).
fn percentile(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = (p * n as f64).ceil().max(1.0) as usize;
    sorted[rank.min(n) - 1].as_secs_f64() * 1e3
}

/// Drive a running `modsoc serve` with a seeded mixed workload and
/// check the service-level invariants (identical requests get identical
/// bytes, sheds carry `Retry-After`, nothing hangs or corrupts).
pub(crate) fn loadgen(a: &Args) -> Result<RunStatus, CliError> {
    let addr: String = a.required("--addr")?;
    // Single-shot text analyze: emit the served report verbatim so the
    // CI gate can byte-diff it against `modsoc analyze` stdout.
    if let Some(path) = a.get("--analyze-file") {
        let text = read_file(path)?;
        let body = modsoc::metrics::json::JsonValue::Object(vec![
            (
                "soc".to_string(),
                modsoc::metrics::json::JsonValue::String(text),
            ),
            (
                "format".to_string(),
                modsoc::metrics::json::JsonValue::String("text".to_string()),
            ),
        ])
        .to_compact();
        let resp = http_request(
            &addr,
            "POST",
            "/analyze",
            Some(&body),
            Duration::from_secs(30),
        )
        .map_err(|e| format!("POST /analyze: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "served analyze failed with {}: {}",
                resp.status,
                resp.body_text()
            )
            .into());
        }
        print!("{}", resp.body_text());
        return Ok(RunStatus::Complete);
    }
    if a.has("--shutdown") {
        let resp = http_request(&addr, "POST", "/shutdown", None, Duration::from_secs(10))
            .map_err(|e| format!("POST /shutdown: {e}"))?;
        println!("shutdown: {} {}", resp.status, resp.body_text());
        return Ok(RunStatus::Complete);
    }
    // Single-shot metrics scrape: print the server's /metrics document
    // verbatim so scripts (the CI distributed gate) can read counters
    // like store_writes without an HTTP client of their own.
    if a.has("--dump-metrics") {
        let resp = http_request(&addr, "GET", "/metrics", None, Duration::from_secs(10))
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /metrics failed with {}", resp.status).into());
        }
        println!("{}", resp.body_text());
        return Ok(RunStatus::Complete);
    }
    let seed: u64 = a.num_or("--seed", 1)?;
    // Flood mode: hammer the daemon with more concurrent requests than
    // its queue can hold and report the shed behavior. Distinct seeds
    // defeat coalescing so every request wants a worker.
    if let Some(n) = a.num::<usize>("--flood")? {
        let outcomes: Vec<HttpResponse> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let addr = addr.clone();
                    s.spawn(move || {
                        let body = mini_experiment(seed.wrapping_add(5000 + i as u64));
                        http_request(
                            &addr,
                            "POST",
                            "/experiment",
                            Some(&body),
                            Duration::from_secs(60),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().ok().and_then(Result::ok))
                .collect()
        });
        let ok = outcomes.iter().filter(|r| r.status == 200).count();
        let shed = outcomes.iter().filter(|r| r.status == 503).count();
        let shed_with_header = outcomes
            .iter()
            .filter(|r| r.status == 503 && r.header("retry-after").is_some())
            .count();
        println!(
            "flood: {n} fired, {} answered, {ok} ok, {shed} shed with 503",
            outcomes.len()
        );
        println!(
            "retry-after on all 503s: {}",
            if shed_with_header == shed {
                "PASS"
            } else {
                "FAIL"
            }
        );
        // Every fired request must get *some* answer — shedding means
        // refusing loudly, never hanging or dropping admitted work.
        if outcomes.len() == n && shed_with_header == shed {
            return Ok(RunStatus::Complete);
        }
        return Err(CliError::Failed(
            "flood outcomes violated the shed contract".into(),
        ));
    }
    // Mixed-workload mode.
    let requests: usize = a.num_or("--requests", 64)?;
    let concurrency: usize = a.num_or("--concurrency", 8)?;
    let keep_alive = a.has("--keep-alive");
    let next = std::sync::atomic::AtomicUsize::new(0);
    let started = std::time::Instant::now();
    let per_worker: Vec<(Vec<LoadgenOutcome>, (u64, u64, u64))> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..concurrency.max(1))
            .map(|_| {
                let addr = addr.clone();
                let next = &next;
                s.spawn(move || {
                    let mut transport = Transport::new(&addr, keep_alive)?;
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        if i >= requests {
                            return Ok((mine, transport.stats()));
                        }
                        mine.push(loadgen_request(&mut transport, seed, i, 100));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("worker panicked".into())))
            .collect::<Result<_, String>>()
    })?;
    let wall = started.elapsed().as_secs_f64();
    let (mut ka_requests, mut ka_connects, mut ka_reused) = (0u64, 0u64, 0u64);
    let mut outcomes: Vec<LoadgenOutcome> = Vec::with_capacity(requests);
    for (mine, (rq, co, re)) in per_worker {
        outcomes.extend(mine);
        ka_requests += rq;
        ka_connects += co;
        ka_reused += re;
    }
    outcomes.sort_unstable_by_key(|o| o.index);
    let mut by_status: BTreeMap<u16, usize> = BTreeMap::new();
    for o in &outcomes {
        *by_status.entry(o.status).or_default() += 1;
    }
    let mut latencies: Vec<Duration> = outcomes.iter().map(|o| o.latency).collect();
    latencies.sort_unstable();
    println!(
        "loadgen: {} requests, {concurrency} workers, {wall:.2}s wall, {:.1} req/s",
        outcomes.len(),
        outcomes.len() as f64 / wall.max(1e-9)
    );
    let histogram: Vec<String> = by_status
        .iter()
        .map(|(s, c)| {
            if *s == 0 {
                format!("io-error: {c}")
            } else {
                format!("{s}: {c}")
            }
        })
        .collect();
    println!("status {}", histogram.join("  "));
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    println!(
        "latency ms: p50 {p50:.1}  p90 {:.1}  p99 {p99:.1}",
        percentile(&latencies, 0.90),
    );
    let mut analyze_lat: Vec<Duration> = outcomes
        .iter()
        .filter(|o| o.class == "analyze")
        .map(|o| o.latency)
        .collect();
    analyze_lat.sort_unstable();
    let analyze_p99 = percentile(&analyze_lat, 0.99);
    if !analyze_lat.is_empty() {
        println!(
            "analyze latency ms: p50 {:.1}  p99 {analyze_p99:.1} ({} requests)",
            percentile(&analyze_lat, 0.50),
            analyze_lat.len()
        );
    }
    let total_retries: u64 = outcomes.iter().map(|o| o.retries).sum();
    println!("retries after 503: {total_retries}");
    if keep_alive {
        println!(
            "keep-alive: {ka_requests} requests over {ka_connects} connections ({ka_reused} reused)"
        );
    }
    if let Some(path) = a.get("--bodies-out") {
        let mut lines = String::new();
        for o in &outcomes {
            use std::fmt::Write as _;
            let _ = writeln!(lines, "{} {} {} {}", o.index, o.class, o.status, o.body_sha);
        }
        write_file(path, lines)?;
    }
    // Invariants behind the corruption check:
    //  * every identical "hot" request answered 200 with identical
    //    bytes (one engine result fanned out, never a torn mix);
    //  * oversized bodies always 413 (the cap held);
    //  * every 503 carried Retry-After;
    //  * no request ended in an I/O error or hung past its timeout.
    let hot_shas: Vec<&String> = outcomes
        .iter()
        .filter(|o| o.class == "hot" && o.status == 200)
        .map(|o| &o.body_sha)
        .collect();
    let hot_consistent = hot_shas.windows(2).all(|w| w[0] == w[1]);
    let hot_all_ok = outcomes
        .iter()
        .filter(|o| o.class == "hot")
        .all(|o| o.status == 200);
    let oversized_ok = outcomes
        .iter()
        .filter(|o| o.class == "oversized")
        .all(|o| o.status == 413);
    let sheds_tagged = outcomes.iter().all(|o| o.retry_after_ok);
    let no_io_errors = outcomes.iter().all(|o| o.status != 0);
    let pass = hot_consistent && hot_all_ok && oversized_ok && sheds_tagged && no_io_errors;
    println!(
        "zero-corruption check: {}",
        if pass { "PASS" } else { "FAIL" }
    );
    if !pass {
        return Err(format!(
            "corruption check failed (hot consistent: {hot_consistent}, hot ok: {hot_all_ok}, \
             oversized 413: {oversized_ok}, sheds tagged: {sheds_tagged}, no io errors: {no_io_errors})"
        )
        .into());
    }
    Ok(RunStatus::Complete)
}

#[cfg(test)]
mod tests {
    use super::percentile;
    use std::time::Duration;

    fn ms(values: &[u64]) -> Vec<Duration> {
        values.iter().map(|&v| Duration::from_millis(v)).collect()
    }

    #[test]
    fn percentile_empty_is_zero() {
        assert_eq!(percentile(&[], 0.50), 0.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn percentile_single_sample_is_that_sample() {
        let s = ms(&[7]);
        assert_eq!(percentile(&s, 0.50), 7.0);
        assert_eq!(percentile(&s, 0.90), 7.0);
        assert_eq!(percentile(&s, 0.99), 7.0);
    }

    #[test]
    fn percentile_two_samples_median_is_lower() {
        // Nearest rank: ceil(0.5 * 2) = 1 -> the first sample, not the
        // second (the old rounding picked index 1 here).
        let s = ms(&[10, 20]);
        assert_eq!(percentile(&s, 0.50), 10.0);
        assert_eq!(percentile(&s, 0.99), 20.0);
    }

    #[test]
    fn percentile_n99_hits_true_ranks() {
        let s = ms(&(1..=99).collect::<Vec<u64>>());
        // ceil(0.5 * 99) = 50 -> 50 ms; ceil(0.9 * 99) = 90;
        // ceil(0.99 * 99) = 99 -> the maximum (old code returned 98).
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
    }

    #[test]
    fn percentile_n100_hits_true_ranks() {
        let s = ms(&(1..=100).collect::<Vec<u64>>());
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.00), 100.0);
    }
}
