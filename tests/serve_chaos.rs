//! Chaos acceptance suite for the `modsoc serve` daemon.
//!
//! Hostile and unlucky clients — killed mid-request, slowloris writers,
//! duplicate stampedes, queue overflow, SIGTERM mid-flight — must never
//! wedge the daemon, corrupt the store, or produce divergent answers to
//! identical questions.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Output, Stdio};
use std::sync::Arc;
use std::time::Duration;

use modsoc::analysis::serve::{http_request, HttpResponse, ServeConfig, Server};
use modsoc::metrics::Counter;
use modsoc::store::ResultStore;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("modsoc_serve_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Start an in-process server on an ephemeral port; returns the
/// address, a shutdown closure and the join handle.
fn start(config: ServeConfig) -> (String, impl FnOnce() -> modsoc::metrics::MetricsSnapshot) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    (addr, move || {
        handle.shutdown();
        join.join().expect("join")
    })
}

fn experiment_body(seed: u64) -> String {
    format!("{{\"soc\": \"mini\", \"seed\": {seed}, \"timeout_ms\": 20000}}")
}

fn post_experiment(addr: &str, seed: u64) -> std::io::Result<HttpResponse> {
    http_request(
        addr,
        "POST",
        "/experiment",
        Some(&experiment_body(seed)),
        Duration::from_secs(60),
    )
}

#[test]
fn killed_mid_request_clients_do_not_wedge_the_server() {
    let (addr, stop) = start(ServeConfig {
        workers: 2,
        read_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    });
    // A mix of abandonment points: before any bytes, mid-request-line,
    // mid-headers, and mid-body (Content-Length promises more than is
    // ever sent). Each connection is dropped without a clean close.
    let partials: &[&[u8]] = &[
        b"",
        b"POST /exp",
        b"POST /experiment HTTP/1.1\r\nContent-Le",
        b"POST /experiment HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"soc\":",
    ];
    for chunk in partials {
        let mut s = TcpStream::connect(&addr).expect("connect");
        s.write_all(chunk).expect("write");
        drop(s); // vanish
    }
    // The daemon must still serve real work afterwards.
    let resp = post_experiment(&addr, 42).expect("healthy request survives");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let snap = stop();
    assert_eq!(snap.counter(Counter::ServePanics), 0);
}

#[test]
fn slowloris_writer_is_dropped_on_the_read_timeout() {
    let (addr, stop) = start(ServeConfig {
        workers: 1, // one worker: a held worker would block everything
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    // Trickle a request one byte at a time, slower than the server's
    // patience, while holding the connection open.
    let mut slow = TcpStream::connect(&addr).expect("connect");
    slow.write_all(b"POST /experiment HTT")
        .expect("first bytes");
    std::thread::sleep(Duration::from_millis(600));
    // The sole worker must have abandoned the slowloris by now and be
    // free to serve a healthy request.
    let resp = http_request(&addr, "GET", "/healthz", None, Duration::from_secs(5))
        .expect("healthz after slowloris");
    assert_eq!(resp.status, 200);
    drop(slow);
    let snap = stop();
    assert_eq!(snap.counter(Counter::ServePanics), 0);
}

#[test]
fn concurrent_identical_requests_serve_one_engine_run() {
    // Reference: the same unit, once, against its own store.
    let solo_dir = temp_dir("solo");
    let solo_store = Arc::new(ResultStore::open(&solo_dir).expect("store"));
    let (solo_addr, solo_stop) = start(ServeConfig {
        workers: 4,
        store: Some(Arc::clone(&solo_store)),
        ..ServeConfig::default()
    });
    let solo = post_experiment(&solo_addr, 77).expect("solo run");
    assert_eq!(solo.status, 200, "{}", solo.body_text());
    solo_stop();
    let solo_writes = solo_store.writes();
    assert!(solo_writes > 0, "a cold run must write store entries");

    // Stampede: six identical requests at once against a fresh store.
    let dir = temp_dir("stampede");
    let store = Arc::new(ResultStore::open(&dir).expect("store"));
    let (addr, stop) = start(ServeConfig {
        workers: 6,
        store: Some(Arc::clone(&store)),
        ..ServeConfig::default()
    });
    let mut bodies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || post_experiment(&addr, 77).expect("stampede request"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let resp = h.join().expect("no client panic");
                assert_eq!(resp.status, 200, "{}", resp.body_text());
                resp.body_text()
            })
            .collect()
    });
    let snap = stop();
    bodies.sort();
    bodies.dedup();
    assert_eq!(
        bodies.len(),
        1,
        "identical requests must get identical bytes"
    );
    // Exactly one engine run: the stampede wrote no more than the solo
    // run did (followers coalesced on the in-flight leader, or hit the
    // store for anything that landed after it finished — never a second
    // cold computation).
    assert_eq!(
        store.writes(),
        solo_writes,
        "coalescing must not duplicate engine work (coalesce hits: {})",
        snap.counter(Counter::ServeCoalesceHits)
    );
    let (valid, corrupt) = store.verify_all().expect("sweep");
    assert_eq!(corrupt, 0, "{valid} valid entries, {corrupt} corrupt");
    let _ = std::fs::remove_dir_all(&solo_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_overflow_sheds_loudly_never_hangs() {
    let (addr, stop) = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    // 12 distinct-seed requests (no coalescing) against one worker and
    // a one-slot queue: most must be refused at admission.
    let responses: Vec<HttpResponse> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let addr = addr.clone();
                s.spawn(move || post_experiment(&addr, 9000 + i))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("no panic")
                    .expect("every request gets an answer")
            })
            .collect()
    });
    let shed: Vec<&HttpResponse> = responses.iter().filter(|r| r.status == 503).collect();
    let ok = responses.iter().filter(|r| r.status == 200).count();
    assert_eq!(
        ok + shed.len(),
        responses.len(),
        "only 200 or 503 under overflow"
    );
    assert!(!shed.is_empty(), "overflow must shed at least one request");
    for r in &shed {
        assert!(
            r.header("retry-after").is_some(),
            "every 503 must carry Retry-After"
        );
    }
    let snap = stop();
    assert_eq!(snap.counter(Counter::ServeShed) as usize, shed.len());
    assert_eq!(snap.counter(Counter::ServePanics), 0);
}

/// Read exactly one HTTP response (head + `Content-Length` body) off a
/// raw keep-alive socket, returning (status, connection header, bytes
/// read past the response — pipelined leftovers).
fn read_one_response(s: &mut TcpStream) -> (u16, String, Vec<u8>) {
    use std::io::Read;
    let mut buf = Vec::new();
    let mut tmp = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = s.read(&mut tmp).expect("response head");
        assert!(n > 0, "connection closed before a full response head");
        buf.extend_from_slice(&tmp[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("utf8 head");
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut connection = String::new();
    let mut content_length = 0usize;
    for line in head.split("\r\n").skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            match k.trim().to_ascii_lowercase().as_str() {
                "connection" => connection = v.trim().to_string(),
                "content-length" => content_length = v.trim().parse().expect("length"),
                _ => {}
            }
        }
    }
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        let n = s.read(&mut tmp).expect("response body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&tmp[..n]);
    }
    (
        status,
        connection,
        buf.split_off(body_start + content_length),
    )
}

/// Satellite (ISSUE 8): a keep-alive request whose body stalls past the
/// read deadline must get a clean 408 and a close — the late bytes must
/// never be misparsed as the method line of a fresh request.
#[test]
fn stalled_keep_alive_body_gets_408_and_close_not_misparse() {
    let (addr, stop) = start(ServeConfig {
        workers: 1,
        keep_alive: true,
        read_timeout: Duration::from_millis(300),
        idle_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Request 1: complete, served on the now-persistent connection.
    s.write_all(b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n")
        .expect("request 1");
    let (status, connection, leftover) = read_one_response(&mut s);
    assert_eq!(status, 200);
    assert_eq!(connection, "keep-alive");
    assert!(leftover.is_empty(), "no pipelined bytes were sent");
    // Request 2: head plus a body prefix, then a stall longer than the
    // server's read deadline.
    s.write_all(b"POST /analyze HTTP/1.1\r\nContent-Length: 24\r\n\r\n{\"soc\"")
        .expect("request 2 prefix");
    std::thread::sleep(Duration::from_millis(800));
    // The rest of the body arrives late. The server may already have
    // closed; a write error is acceptable, a misparse is not.
    let _ = s.write_all(b": \"late late late\"}");
    let (status, connection, mut rest) = read_one_response(&mut s);
    assert_eq!(status, 408, "stalled body must time out, not be misparsed");
    assert_eq!(connection, "close", "a timed-out connection must close");
    // Nothing but EOF after the 408: the late body bytes must not have
    // been answered as if they opened a new request.
    use std::io::Read;
    s.read_to_end(&mut rest).expect("eof");
    assert!(
        rest.is_empty(),
        "unexpected bytes after the 408: {:?}",
        String::from_utf8_lossy(&rest)
    );
    // The daemon itself is unharmed.
    let resp = http_request(&addr, "GET", "/healthz", None, Duration::from_secs(5))
        .expect("healthz after stall");
    assert_eq!(resp.status, 200);
    let snap = stop();
    assert_eq!(snap.counter(Counter::ServeRequestTimeouts), 1);
    assert_eq!(snap.counter(Counter::ServePanics), 0);
}

/// A 100 KB body of `[` is far below the body limit; the JSON parser
/// must reject its depth with a 400 instead of overflowing the worker's
/// stack, which would abort the whole daemon.
#[test]
fn deeply_nested_json_body_gets_400_and_the_daemon_survives() {
    let (addr, stop) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let post = |body: &str| {
        http_request(
            &addr,
            "POST",
            "/analyze",
            Some(body),
            Duration::from_secs(30),
        )
        .expect("daemon answers")
    };
    let resp = post(&"[".repeat(100_000));
    assert_eq!(resp.status, 400, "{}", resp.body_text());
    let resp = post("{\"soc\": \"soc m\\ncore a i=4 o=3 s=20 t=100\\n\", \"format\": \"text\"}");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let snap = stop();
    assert_eq!(snap.counter(Counter::ServePanics), 0);
}

/// Satellite (ISSUE 8): batching composes with coalescing. K identical
/// plus M distinct compatible requests fired concurrently run each
/// unique unit exactly once (store writes match sequential execution),
/// coalesce the K duplicates, and return bodies byte-identical to
/// sequential single-request execution.
#[test]
fn batching_composes_with_coalescing_and_stays_byte_identical() {
    const HOT: u64 = 300;
    const DISTINCT: [u64; 3] = [301, 302, 303];
    const K: usize = 4; // identical (seed HOT) requests

    // Sequential reference: every unique unit once, batching off.
    let seq_dir = temp_dir("batch_seq");
    let seq_store = Arc::new(ResultStore::open(&seq_dir).expect("store"));
    let (seq_addr, seq_stop) = start(ServeConfig {
        workers: 1,
        batch_max: 1,
        store: Some(Arc::clone(&seq_store)),
        ..ServeConfig::default()
    });
    let mut sequential: Vec<(u64, String)> = Vec::new();
    let mut hot_runs = 0;
    for seed in std::iter::once(HOT).chain(DISTINCT) {
        let resp = post_experiment(&seq_addr, seed).expect("sequential run");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        sequential.push((seed, resp.body_text()));
        if seed == HOT {
            hot_runs = seq_store.writes();
        }
    }
    seq_stop();
    let sequential_writes = seq_store.writes();
    assert!(sequential_writes > 0);

    // Concurrent stampede with batching on: a wide window so the
    // concurrently-arriving compatible units actually group.
    let dir = temp_dir("batch_mix");
    let store = Arc::new(ResultStore::open(&dir).expect("store"));
    let (addr, stop) = start(ServeConfig {
        workers: 6,
        batch_max: 4,
        batch_window: Duration::from_millis(150),
        store: Some(Arc::clone(&store)),
        ..ServeConfig::default()
    });
    let concurrent: Vec<(u64, String)> = std::thread::scope(|s| {
        let seeds: Vec<u64> = std::iter::repeat_n(HOT, K).chain(DISTINCT).collect();
        let handles: Vec<_> = seeds
            .into_iter()
            .map(|seed| {
                let addr = addr.clone();
                s.spawn(move || (seed, post_experiment(&addr, seed).expect("stampede")))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (seed, resp) = h.join().expect("client thread");
                assert_eq!(resp.status, 200, "{}", resp.body_text());
                (seed, resp.body_text())
            })
            .collect()
    });
    let snap = stop();

    // Exactly M+1 engine runs: the stampede wrote what sequential wrote.
    assert_eq!(
        store.writes(),
        sequential_writes,
        "batching/coalescing must not duplicate or skip engine work"
    );
    // The K duplicates cost one engine run. Each of the K-1 followers
    // either coalesced onto the HOT flight or, arriving after that
    // flight had finished, led a new flight answered wholly from the
    // store. Thread timing picks between the two, so only the sum is
    // pinned.
    let late = store.hits() / hot_runs;
    assert_eq!(
        store.hits(),
        late * hot_runs,
        "a late duplicate hits every entry"
    );
    let coalesced = snap.counter(Counter::ServeCoalesceHits);
    assert!(coalesced >= 1, "the stampede never coalesced");
    assert_eq!(coalesced + late, K as u64 - 1);
    // Every flight leader went through the batch path exactly once.
    assert_eq!(
        snap.counter(Counter::ServeBatchedUnits),
        1 + DISTINCT.len() as u64 + late
    );
    assert!(snap.counter(Counter::ServeBatches) >= 1);
    // Byte identity: every response matches its sequential twin.
    for (seed, body) in &concurrent {
        let twin = sequential
            .iter()
            .find(|(s, _)| s == seed)
            .map(|(_, b)| b)
            .expect("sequential twin");
        assert_eq!(body, twin, "seed {seed} diverged from sequential bytes");
    }
    assert_eq!(snap.counter(Counter::ServePanics), 0);
    let _ = std::fs::remove_dir_all(&seq_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run the `modsoc` binary to completion.
fn modsoc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_modsoc"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Run `modsoc loadgen --addr addr args`, expecting exit 0; returns its
/// stdout.
fn loadgen(addr: &str, args: &[&str]) -> String {
    let out = modsoc(&[&["loadgen", "--addr", addr], args].concat());
    assert_eq!(
        out.status.code(),
        Some(0),
        "loadgen {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// Start `modsoc serve --addr 127.0.0.1:0 args` as a child process;
/// returns it and the address from its listen line.
fn spawn_serve(args: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_modsoc"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut line)
        .expect("listen line");
    let addr = line
        .trim()
        .rsplit_once("http://")
        .unwrap_or_else(|| panic!("no address in listen line {line:?}"))
        .1
        .to_string();
    (child, addr)
}

/// Send SIGTERM to `child` and assert that it drains and exits 0.
fn sigterm_exits_0(mut child: Child) {
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "graceful drain must exit 0, got {status}");
}

/// POST /shutdown to the daemon at `addr` and assert that it exits 0.
fn shutdown_exits_0(mut child: Child, addr: &str) {
    loadgen(addr, &["--shutdown"]);
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "POST /shutdown must exit 0, got {status}");
}

/// The seeded mixed workload: 48 requests from 8 callers.
const MIXED: [&str; 6] = [
    "--requests",
    "48",
    "--concurrency",
    "8",
    "--seed",
    "20080310",
];

/// Process-level: SIGTERM mid-service must drain, exit 0, and leave the
/// shared store passing a corruption sweep.
#[test]
fn sigterm_drains_the_daemon_and_preserves_the_store() {
    let dir = temp_dir("sigterm");
    let store_dir = dir.join("store");
    let (child, addr) = spawn_serve(&[
        "--workers",
        "2",
        "--store",
        store_dir.to_str().expect("utf8"),
    ]);

    // Put real work through it so the store has entries to corrupt.
    let resp = post_experiment(&addr, 5).expect("request against daemon");
    assert_eq!(resp.status, 200, "{}", resp.body_text());

    // SIGTERM while more requests are in flight.
    let firing = std::thread::spawn({
        let addr = addr.clone();
        move || {
            for i in 0..4u64 {
                // Deliveries may fail once the drain begins — that is
                // the point. Nothing may hang or panic.
                let _ = post_experiment(&addr, 100 + i);
            }
        }
    });
    sigterm_exits_0(child);
    firing.join().expect("client thread");

    let store = ResultStore::open(&store_dir).expect("reopen");
    let (valid, corrupt) = store.verify_all().expect("sweep");
    assert_eq!(corrupt, 0, "{valid} valid entries, {corrupt} corrupt");
    assert!(valid > 0, "the pre-SIGTERM request must have persisted");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Process-level: a served analyze is byte-identical to the CLI's
/// stdout, the seeded mixed workload passes loadgen's corruption check,
/// and POST /shutdown drains the daemon to exit 0.
#[test]
fn served_analyze_matches_the_cli_and_mixed_load_is_uncorrupted() {
    let dir = temp_dir("parity");
    let store_dir = dir.join("store");
    let (child, addr) = spawn_serve(&[
        "--workers",
        "2",
        "--store",
        store_dir.to_str().expect("utf8"),
    ]);
    let cli = modsoc(&["analyze", "testdata/soc1.soc"]);
    assert_eq!(cli.status.code(), Some(0));
    let served = loadgen(&addr, &["--analyze-file", "testdata/soc1.soc"]);
    assert_eq!(served, String::from_utf8(cli.stdout).expect("utf8 stdout"));
    let report = loadgen(&addr, &MIXED);
    assert!(report.contains("zero-corruption check: PASS"), "{report}");
    shutdown_exits_0(child, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Process-level: a one-worker daemon with a two-slot queue sheds a
/// flood with 503s, each carrying Retry-After, and SIGTERM drains it to
/// exit 0.
#[test]
fn flooded_daemon_sheds_with_retry_after_and_drains_on_sigterm() {
    let (child, addr) = spawn_serve(&["--workers", "1", "--queue", "2"]);
    let report = loadgen(&addr, &["--flood", "24"]);
    let shed: usize = report
        .lines()
        .find_map(|l| l.strip_suffix(" shed with 503"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no shed count: {report}"));
    assert!(shed > 0, "{report}");
    assert!(report.contains("retry-after on all 503s: PASS"), "{report}");
    sigterm_exits_0(child);
}

/// Process-level: a daemon started with no transport flags keeps
/// connections alive and batches. It serves the seeded mixed workload
/// over both transports with identical per-request bodies, the
/// keep-alive client really reuses its sockets, and experiment units
/// went through at least one batch.
#[test]
fn keep_alive_transport_never_changes_the_bodies() {
    let dir = temp_dir("keepalive");
    let store_dir = dir.join("store");
    let (child, addr) = spawn_serve(&[
        "--workers",
        "2",
        "--store",
        store_dir.to_str().expect("utf8"),
    ]);
    let close = dir.join("bodies_close.txt");
    let kept = dir.join("bodies_ka.txt");
    loadgen(
        &addr,
        &[&MIXED[..], &["--bodies-out", close.to_str().expect("utf8")]].concat(),
    );
    let report = loadgen(
        &addr,
        &[
            &MIXED[..],
            &["--keep-alive", "--bodies-out", kept.to_str().expect("utf8")],
        ]
        .concat(),
    );
    assert_eq!(
        std::fs::read_to_string(&close).expect("close bodies"),
        std::fs::read_to_string(&kept).expect("keep-alive bodies")
    );
    assert!(report.contains("zero-corruption check: PASS"), "{report}");
    // "keep-alive: 48 requests over N connections (M reused)", M >= 1.
    let reused: u64 = report
        .lines()
        .find_map(|l| l.strip_prefix("keep-alive: 48 requests over "))
        .and_then(|l| l.split_once(" connections ("))
        .filter(|(connects, _)| connects.parse::<u64>().is_ok())
        .and_then(|(_, rest)| rest.strip_suffix(" reused)"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no keep-alive line: {report}"));
    assert!(reused > 0, "{report}");
    let metrics = loadgen(&addr, &["--dump-metrics"]);
    let batches = modsoc::metrics::json::parse(&metrics)
        .ok()
        .and_then(|doc| doc.get("counters")?.get("serve_batches")?.as_u64())
        .unwrap_or_else(|| panic!("no serve_batches counter: {metrics}"));
    assert!(batches >= 1, "{metrics}");
    shutdown_exits_0(child, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}
