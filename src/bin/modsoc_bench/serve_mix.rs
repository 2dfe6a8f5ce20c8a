//! `serve_mix`: an in-process `modsoc serve` under a closed loop.
//!
//! The server runs keep-alive with two workers, batches of up to four
//! and a store of its own. Two persistent `HttpClient` connections, one
//! per caller, each wait for their reply before sending the next request
//! — how campaign workers and CI use the daemon. Each iteration sends
//! every class at exactly its share, in an order the seed shuffles:
//!
//! | class     | share | request                                        |
//! |-----------|-------|------------------------------------------------|
//! | hot       | 40%   | one repeated unit (coalescing, store hits)     |
//! | warm      | 20%   | one of 32 units prefilled in set-up            |
//! | fresh     | 10%   | a never-seen unit: an engine run, a store write |
//! | analyze   | 20%   | `/analyze` of an ITC'02 SOC (light lane)        |
//! | oversized | 10%   | a body over the cap, answered 413              |

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modsoc::analysis::report::render_analyze_report;
use modsoc::analysis::serve::{HttpClient, ServeConfig, Server, ServerHandle};
use modsoc::analysis::{SocTdvAnalysis, TdvOptions};
use modsoc::circuitgen::soc::mini_soc;
use modsoc::metrics::json::{self, JsonValue};
use modsoc::metrics::MetricsSnapshot;
use modsoc::soc::format::{parse_soc, write_soc};
use modsoc::soc::itc02;
use modsoc::store::ResultStore;

use crate::harness::{ms, Checks, Iteration, Layers, Workload};
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;

/// Requests per iteration: enough that 20 samples lie beyond p99.
const REQUESTS: usize = 2000;
/// The fewest that leave 10 beyond p99, so quick mode reports latencies.
const QUICK_REQUESTS: usize = 1000;
const WARM_POOL: u64 = 32;
/// Client connections and server workers: the machine's two cores.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const BATCH_MAX: usize = 4;
const MAX_BODY: usize = 64 * 1024;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot,
    Warm,
    Fresh,
    Analyze,
    Oversized,
}

impl Class {
    const ALL: [Class; 5] = [
        Class::Hot,
        Class::Warm,
        Class::Fresh,
        Class::Analyze,
        Class::Oversized,
    ];

    fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Warm => "warm",
            Class::Fresh => "fresh",
            Class::Analyze => "analyze",
            Class::Oversized => "oversized",
        }
    }

    /// Class of percentile `roll` in 0..100 of the mix.
    fn of_roll(roll: u64) -> Class {
        match roll {
            0..=39 => Class::Hot,
            40..=59 => Class::Warm,
            60..=69 => Class::Fresh,
            70..=89 => Class::Analyze,
            _ => Class::Oversized,
        }
    }
}

/// What a correct response looks like.
#[derive(Debug, Clone)]
enum Expect {
    /// 200 with exactly these bytes.
    Body(Arc<str>),
    /// 200 with `"status":"ok"` — a unit nobody asked for before.
    Fresh,
    /// This status, body ignored.
    Status(u16),
}

#[derive(Debug)]
struct Planned {
    class: Class,
    path: &'static str,
    body: Arc<str>,
    expect: Expect,
}

/// One finished request.
struct Outcome {
    class: Class,
    latency_ms: f64,
    problem: Option<String>,
}

/// A running server, its store and the two callers' connections.
struct Rig {
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<MetricsSnapshot>>>,
    store: Arc<ResultStore>,
    dir: PathBuf,
    clients: Vec<HttpClient>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        // Close the callers' sockets first so no worker waits on them,
        // then drain the server and wait for its threads.
        self.clients.clear();
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub struct ServeMix {
    quick: bool,
    work_dir: PathBuf,
    /// Base of this seed's unit seeds; unit `k` is `base + k`.
    base: u64,
    rng: u64,
    setups: usize,
    rig: Option<Rig>,
    hot: (Arc<str>, Arc<str>),
    warm: Vec<(Arc<str>, Arc<str>)>,
    analyze: Vec<(Arc<str>, Arc<str>)>,
    oversized: Arc<str>,
    fresh_next: u64,
    /// Store entries one experiment writes (cores + the flattened SOC).
    entries_per_unit: u64,
    requests_sent: u64,
}

/// SplitMix64: the mix generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_body(seed: u64) -> Arc<str> {
    format!("{{\"soc\":\"mini\",\"seed\":{seed}}}").into()
}

fn request(client: &mut HttpClient, path: &str, body: &str) -> Result<(u16, String), String> {
    let method = if path == "/metrics" { "GET" } else { "POST" };
    let body = (method == "POST").then_some(body);
    client
        .request(method, path, body)
        .map(|r| (r.status, r.body_text()))
        .map_err(|e| format!("{method} {path}: {e}"))
}

impl ServeMix {
    pub fn new(seed: u64, quick: bool, work_dir: PathBuf) -> ServeMix {
        // Unit seeds stay below 2^40 so they survive the f64 JSON numbers.
        let base = (seed % (1 << 20)) << 20;
        ServeMix {
            quick,
            work_dir,
            base,
            rng: seed,
            setups: 0,
            rig: None,
            hot: (unit_body(base), "".into()),
            warm: Vec::new(),
            analyze: Vec::new(),
            oversized: "x".repeat(MAX_BODY + 1).into(),
            fresh_next: WARM_POOL + 1,
            entries_per_unit: 0,
            requests_sent: 0,
        }
    }

    fn rig(&mut self) -> Result<&mut Rig, String> {
        self.rig.as_mut().ok_or("iterate before setup".to_string())
    }

    /// One iteration's requests: every class at exactly its share, warm
    /// units and analyzed SOCs in equal turns, all in a seeded order. The
    /// seed decides which request comes when and which fresh units exist,
    /// not how much of each kind of work an iteration does — a drawn mix
    /// would vary the engine runs by a few percent from seed to seed.
    fn plan(&mut self) -> Vec<Planned> {
        let n = if self.quick { QUICK_REQUESTS } else { REQUESTS };
        let mut classes: Vec<Class> = (0..n)
            .map(|i| Class::of_roll((i * 100 / n) as u64))
            .collect();
        for i in (1..n).rev() {
            let j = (next(&mut self.rng) % (i as u64 + 1)) as usize;
            classes.swap(i, j);
        }
        let (mut warm_turn, mut analyze_turn) = (0, 0);
        classes
            .into_iter()
            .map(|class| {
                let (path, body, expect) = match class {
                    Class::Hot => (
                        "/experiment",
                        self.hot.0.clone(),
                        Expect::Body(self.hot.1.clone()),
                    ),
                    Class::Warm => {
                        let (body, reply) = &self.warm[warm_turn % self.warm.len()];
                        warm_turn += 1;
                        ("/experiment", body.clone(), Expect::Body(reply.clone()))
                    }
                    Class::Fresh => {
                        self.fresh_next += 1;
                        (
                            "/experiment",
                            unit_body(self.base + self.fresh_next),
                            Expect::Fresh,
                        )
                    }
                    Class::Analyze => {
                        let (body, reply) = &self.analyze[analyze_turn % self.analyze.len()];
                        analyze_turn += 1;
                        ("/analyze", body.clone(), Expect::Body(reply.clone()))
                    }
                    Class::Oversized => ("/analyze", self.oversized.clone(), Expect::Status(413)),
                };
                Planned {
                    class,
                    path,
                    body,
                    expect,
                }
            })
            .collect()
    }

    /// `/metrics` counters and phases, read over the first connection.
    fn scrape(&mut self) -> Result<JsonValue, String> {
        let client = &mut self.rig()?.clients[0];
        let (status, body) = request(client, "/metrics", "")?;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
        json::parse(&body).map_err(|e| format!("/metrics: {e}"))
    }
}

fn counter(doc: &JsonValue, name: &str) -> f64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// `(calls, wall_ms)` of one phase; absent phases never ran.
fn phase(doc: &JsonValue, name: &str) -> (f64, f64) {
    let p = doc.get("phases").and_then(|p| p.get(name));
    let field = |f: &str| {
        p.and_then(|p| p.get(f))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    (field("calls"), field("wall_ms"))
}

fn judge(expect: &Expect, status: u16, body: &str) -> Option<String> {
    match expect {
        Expect::Body(want) if status == 200 && body == &**want => None,
        Expect::Body(_) => Some(format!("status {status}, body differs from the reference")),
        Expect::Fresh if status == 200 && body.contains("\"status\":\"ok\"") => None,
        Expect::Fresh => Some(format!("status {status}: {body}")),
        Expect::Status(want) if status == *want => None,
        Expect::Status(want) => Some(format!("status {status}, want {want}")),
    }
}

impl Workload for ServeMix {
    fn setup(&mut self) -> Result<Duration, String> {
        drop(self.rig.take());
        let t = Instant::now();
        let dir = self.work_dir.join(format!("serve-store-{}", self.setups));
        self.setups += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ResultStore::open(&dir).map_err(|e| e.to_string())?);
        let server = Server::bind(ServeConfig {
            workers: WORKERS,
            keep_alive: true,
            batch_max: BATCH_MAX,
            max_body_bytes: MAX_BODY,
            store: Some(Arc::clone(&store)),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("binding the server: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let clients = (0..CLIENTS)
            .map(|_| HttpClient::new(&addr, CLIENT_TIMEOUT).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        self.rig = Some(Rig {
            handle,
            thread: Some(thread),
            store,
            dir,
            clients,
        });

        // Prefill: the hot unit and the warm pool, whose replies become
        // the bytes every later response for that unit must match.
        let base = self.base;
        let client = &mut self.rig()?.clients[0];
        let mut prefill = |seed: u64| -> Result<(Arc<str>, Arc<str>), String> {
            let body = unit_body(seed);
            match request(client, "/experiment", &body)? {
                (200, reply) if reply.contains("\"status\":\"ok\"") => Ok((body, reply.into())),
                (status, reply) => Err(format!("prefill of unit {seed}: {status} {reply}")),
            }
        };
        let hot = prefill(base)?;
        let warm = (1..=WARM_POOL)
            .map(|k| prefill(base + k))
            .collect::<Result<_, _>>()?;
        self.hot = hot;
        self.warm = warm;
        self.analyze = [itc02::soc1(), itc02::soc2(), itc02::p34392()]
            .iter()
            .map(|model| {
                let text = write_soc(model);
                let soc = parse_soc(&text).map_err(|e| e.to_string())?;
                let analysis = SocTdvAnalysis::compute(&soc, &TdvOptions::tables_3_4())
                    .map_err(|e| e.to_string())?;
                let body = JsonValue::Object(vec![
                    ("soc".to_string(), JsonValue::String(text)),
                    ("format".to_string(), JsonValue::String("text".to_string())),
                ])
                .to_compact();
                Ok((body.into(), render_analyze_report(&soc, &analysis).into()))
            })
            .collect::<Result<_, String>>()?;
        let cores = mini_soc(base).map_err(|e| e.to_string())?.cores().len();
        self.entries_per_unit = cores as u64 + 1;
        Ok(t.elapsed())
    }

    fn iterate(
        &mut self,
        tracer: &Tracer,
        root: Option<usize>,
        checks: &mut Checks,
    ) -> Result<Iteration, String> {
        let plan = self.plan();
        let fresh = plan.iter().filter(|p| p.class == Class::Fresh).count() as u64;
        let before = if tracer.enabled() {
            Some(self.scrape()?)
        } else {
            None
        };
        let first_request = self.requests_sent;
        self.requests_sent += plan.len() as u64;
        let rig = self.rig()?;
        let store_before = [
            rig.store.hits(),
            rig.store.misses(),
            rig.store.writes(),
            rig.store.evictions(),
        ];
        let connects_before: u64 = rig.clients.iter().map(|c| c.stats().1).sum();

        let cursor = AtomicUsize::new(0);
        let t = Instant::now();
        let outcomes: Vec<Outcome> = std::thread::scope(|s| {
            let callers: Vec<_> = rig
                .clients
                .iter_mut()
                .map(|client| {
                    let (plan, cursor) = (&plan, &cursor);
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(p) = plan.get(i) else {
                                return mine;
                            };
                            let req = first_request + i as u64;
                            let sent = Instant::now();
                            let got = tracer.span("core.serve", p.class.name(), root, req, |_| {
                                request(client, p.path, &p.body)
                            });
                            let latency_ms = ms(sent.elapsed());
                            let problem = match got {
                                Ok((status, body)) => judge(&p.expect, status, &body),
                                Err(e) => Some(e),
                            }
                            .map(|why| format!("request {req} ({}): {why}", p.class.name()));
                            mine.push(Outcome {
                                class: p.class,
                                latency_ms,
                                problem,
                            });
                        }
                    })
                })
                .collect();
            callers
                .into_iter()
                .flat_map(|c| c.join().expect("caller threads do not panic"))
                .collect()
        });
        let wall = t.elapsed();

        let store = &rig.store;
        let store_after = [
            store.hits(),
            store.misses(),
            store.writes(),
            store.evictions(),
        ];
        let [hits, misses, writes, evictions] =
            [0, 1, 2, 3].map(|i| (store_after[i] - store_before[i]) as f64);
        let connects = rig.clients.iter().map(|c| c.stats().1).sum::<u64>() - connects_before;
        let mut failed = 0;
        for o in &outcomes {
            if !checks.check(o.problem.is_none(), || {
                o.problem.clone().unwrap_or_default()
            }) {
                failed += 1;
            }
        }
        let want_writes = (fresh * self.entries_per_unit) as f64;
        let store_ok = checks.check(writes == want_writes && evictions == 0.0, || {
            format!("store wrote {writes} entries with {evictions} evictions; {fresh} fresh units want {want_writes} and none")
        });
        failed += u64::from(!store_ok);

        let mut layers = Layers::new();
        if let Some(before) = before {
            let after = self.scrape()?;
            let delta = |name: &str| counter(&after, name) - counter(&before, name);
            let mean_ms = |name: &str| {
                let ((c0, w0), (c1, w1)) = (phase(&before, name), phase(&after, name));
                if c1 > c0 {
                    (w1 - w0) / (c1 - c0)
                } else {
                    0.0
                }
            };
            layers.insert("serve.wait_light_ms".into(), mean_ms("serve_wait_light"));
            layers.insert("serve.wait_heavy_ms".into(), mean_ms("serve_wait_heavy"));
            layers.insert("serve.request_ms".into(), mean_ms("serve_request"));
            for (name, counter) in [
                ("serve.coalesce_hits", "serve_coalesce_hits"),
                ("serve.batches", "serve_batches"),
                ("serve.batched_units", "serve_batched_units"),
                ("serve.keepalive_reuses", "serve_keepalive_reuses"),
                ("serve.shed", "serve_shed"),
            ] {
                layers.insert(name.into(), delta(counter));
            }
            let heavy = delta("serve_lane_heavy");
            layers.insert(
                "serve.coalesce_ratio".into(),
                if heavy > 0.0 {
                    delta("serve_coalesce_hits") / heavy
                } else {
                    0.0
                },
            );
            layers.insert("serve.engine_runs".into(), misses);
            layers.insert("serve.connects".into(), connects as f64);
            layers.insert("store.hits".into(), hits);
            layers.insert("store.misses".into(), misses);
            layers.insert("store.evictions".into(), evictions);
            layers.insert(
                "store.hit_ratio".into(),
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
            );
            for class in Class::ALL {
                let lat: Vec<f64> = outcomes
                    .iter()
                    .filter(|o| o.class == class)
                    .map(|o| o.latency_ms)
                    .collect();
                let lat = sorted(&lat);
                layers.insert(
                    format!("serve.lat_p50_ms.{}", class.name()),
                    percentile(&lat, 50.0).unwrap_or(0.0),
                );
                if class == Class::Analyze {
                    layers.insert(
                        "serve.lat_p95_ms.analyze".into(),
                        percentile(&lat, 95.0).unwrap_or(0.0),
                    );
                }
            }
        }
        Ok(Iteration {
            wall,
            ops_ms: outcomes.iter().map(|o| o.latency_ms).collect(),
            failed,
            layers,
        })
    }
}
