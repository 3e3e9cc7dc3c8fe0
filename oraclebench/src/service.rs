//! The `service` workload: an in-process `ppc_service::serve` on
//! 127.0.0.1 over a cached `Oracle`, driven closed loop by
//! [`CLIENTS`] `ppc_service::Client` connections.
//!
//! Set-up explores and stores [`STORED`] seeded tiny programs, more
//! than the result store keeps in its in-memory hot map (4096), so most
//! hits read the store's on-disk sorted index. In the timed stream
//! about 95% of queries repeat a stored program (reads: parse, key,
//! probe, verify, frame) and about 5% are fresh programs (writes:
//! explore, append, index rebuild).

use crate::litgen::{tiny_program, Rng};
use crate::report::{median, median_secs, peak_rss_mb, samples_for_tail, tail, Outcome};
use crate::trace::{Layer, NoTrace, Spans, Tracer};
use crate::RunCtx;
use ppc_litmus::harness::{run_job, HarnessConfig, Job, TestReport};
use ppc_litmus::Expectation;
use ppc_service::{
    serve, Budget, Client, Oracle, OracleStats, Query, Response, ServerConfig, ServerHandle,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Programs stored during set-up.
pub const STORED: u64 = 5000;
/// Closed-loop client connections (one per CPU of the reference host).
pub const CLIENTS: usize = 2;
/// Share of fresh programs in the stream, per mille.
const MISS_PER_MILLE: u64 = 50;
/// Times the service is set up; `setup_s` is the median. The first set-up
/// serves the timed phase; the others follow it, so the repetitions
/// span the run rather than one moment of the host's speed.
const SETUP_REPS: usize = 3;
/// The `pinned_by` of every submitted program.
const PINNED_BY: &str = "oraclebench";
/// Replies re-checked against a direct `run_job`, per class.
const RECHECK_PER_CLASS: usize = 8;
/// Queries per client in each phase of the traced run: enough that the
/// untraced phase's misses support a p99.
const TRACED_QUERIES: u64 = 11_000;
/// The traced run alternates untraced and traced rounds, so drift over
/// the run falls on both sides alike.
const TRACED_ROUNDS: u64 = 4;
/// Queries per client that warm the connections and the store's page
/// cache before the traced run's first round.
const WARMUP_QUERIES: u64 = 1000;
/// How far past `--seconds` the timed phase may run to collect enough
/// samples for every reported tail.
const MAX_EXTENSION: Duration = Duration::from_secs(60);

/// The oracle's configuration: defaults, one exploration at a time.
fn harness() -> HarnessConfig {
    HarnessConfig {
        jobs: 1,
        ..HarnessConfig::default()
    }
}

/// Id of the `k`-th fresh program of `client` in `phase`: above every
/// stored id and distinct across phases and clients.
fn fresh_id(phase: u64, client: u64, k: u64) -> u64 {
    STORED + ((phase * CLIENTS as u64 + client) << 32) + k
}

/// One client's request stream.
struct Plan {
    rng: Rng,
    /// Seeds the client's reply samples.
    sample_seed: u64,
    phase: u64,
    client: u64,
    fresh: u64,
}

impl Plan {
    /// The stream of `client` in `phase`; the hit/miss pattern and the
    /// stored programs repeated depend on `stream` and the seed only.
    fn new(seed: u64, stream: u64, phase: u64, client: u64) -> Plan {
        Plan {
            rng: Rng::stream(seed, 0x5e4_0000 + stream * 16 + client),
            sample_seed: Rng::stream(seed, 0x5a_0000 + phase * 16 + client).next_u64(),
            phase,
            client,
            fresh: 0,
        }
    }

    /// The next program id and whether it is stored (a hit).
    fn next(&mut self) -> (u64, bool) {
        if self.rng.chance(MISS_PER_MILLE, 1000) {
            self.fresh += 1;
            (fresh_id(self.phase, self.client, self.fresh - 1), false)
        } else {
            (self.rng.below(STORED), true)
        }
    }
}

/// A running service with its stored programs.
struct Service {
    dir: PathBuf,
    seed: u64,
    oracle: Arc<Oracle>,
    server: ServerHandle,
    clients: Vec<Client>,
    sources: Vec<String>,
    /// The record line each stored program's exploring query returned.
    lines: Vec<String>,
}

impl Service {
    /// Explore and store the seeded programs, bind, and connect.
    fn start(dir: &Path, seed: u64) -> Result<Service, String> {
        let sources: Vec<String> = (0..STORED).map(|id| tiny_program(seed, id)).collect();
        let oracle = Oracle::with_cache(harness(), dir)
            .map_err(|e| format!("open store {}: {e}", dir.display()))?;
        let mut lines = Vec::with_capacity(sources.len());
        for src in &sources {
            let job = Job::from_source(src, Expectation::Allowed, PINNED_BY)
                .map_err(|e| format!("generated program does not parse: {e}\n{src}"))?;
            let out = oracle.query(&job, &Budget::default());
            if out.cached || !out.report.conclusive() {
                return Err(format!(
                    "set-up query of {} was not a conclusive miss",
                    job.name
                ));
            }
            lines.push(out.line);
        }
        let oracle = Arc::new(oracle);
        let server = serve(&ServerConfig::default(), Arc::clone(&oracle))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = format!("127.0.0.1:{}", server.port());
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(&addr))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Service {
            dir: dir.to_path_buf(),
            seed,
            oracle,
            server,
            clients,
            sources,
            lines,
        })
    }

    /// Close the connections, stop and join the server, delete the
    /// store.
    fn stop(self) {
        let Service {
            dir,
            mut server,
            clients,
            ..
        } = self;
        drop(clients);
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    fn source(&self, id: u64) -> String {
        match self.sources.get(id as usize) {
            Some(s) => s.clone(),
            None => tiny_program(self.seed, id),
        }
    }
}

/// A uniform sample of at most `cap` items from a stream (reservoir
/// sampling), so what a client keeps does not grow with its queries.
struct Reservoir<T> {
    rng: Rng,
    cap: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    fn new(rng: Rng, cap: usize) -> Self {
        Reservoir {
            rng,
            cap,
            seen: 0,
            items: Vec::with_capacity(cap),
        }
    }

    fn absorb(&mut self, other: Reservoir<T>) {
        self.seen += other.seen;
        self.items.extend(other.items);
    }

    fn offer(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(item);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.cap {
                self.items[j] = item;
            }
        }
    }
}

/// Round trips each client keeps per class: a uniform sample, so the
/// client's memory does not grow with its query count (peak memory is
/// an end-to-end metric).
const LATENCY_SAMPLES: usize = 50_000;

/// What one client saw.
struct Log {
    /// Round trips in ms (a failed query is infinitely slow); `seen`
    /// counts every query of the class.
    hits: Reservoir<f64>,
    misses: Reservoir<f64>,
    answered: u64,
    /// States explored to answer the fresh programs.
    states: usize,
    failures: Vec<String>,
    /// A sample of served replies, `(id, line)`, per class.
    hit_sample: Reservoir<(u64, String)>,
    miss_sample: Reservoir<(u64, String)>,
    end: Option<Instant>,
}

impl Log {
    /// An empty log; `sample_seed` drives its samples.
    fn new(sample_seed: u64) -> Log {
        Log {
            hits: Reservoir::new(Rng::stream(sample_seed, 3), LATENCY_SAMPLES),
            misses: Reservoir::new(Rng::stream(sample_seed, 4), LATENCY_SAMPLES),
            answered: 0,
            states: 0,
            failures: Vec::new(),
            hit_sample: Reservoir::new(Rng::stream(sample_seed, 1), RECHECK_PER_CLASS),
            miss_sample: Reservoir::new(Rng::stream(sample_seed, 2), RECHECK_PER_CLASS),
            end: None,
        }
    }

    fn absorb(&mut self, other: Log) {
        self.hits.absorb(other.hits);
        self.misses.absorb(other.misses);
        self.answered += other.answered;
        self.states += other.states;
        self.failures.extend(other.failures);
        self.hit_sample.absorb(other.hit_sample);
        self.miss_sample.absorb(other.miss_sample);
    }
}

/// Check one reply: a hit is the stored line verbatim, a miss a fresh
/// conclusive record. Returns the states the reply's exploration
/// visited (0 for a hit: nothing was explored).
fn check_reply(
    svc_lines: &[String],
    id: u64,
    hit: bool,
    cached: bool,
    line: &str,
) -> Result<usize, String> {
    if hit {
        if !cached {
            return Err(format!("stored program {id} was explored again"));
        }
        if svc_lines[id as usize] != line {
            return Err(format!(
                "stored program {id}: hit line differs from its miss line"
            ));
        }
        return Ok(0);
    }
    if cached {
        return Err(format!("fresh program {id} was served from the store"));
    }
    let r =
        TestReport::from_json_line(line).map_err(|e| format!("program {id}: bad record: {e}"))?;
    if r.conclusive() {
        Ok(r.states)
    } else {
        Err(format!("program {id}: inconclusive ({} states)", r.states))
    }
}

/// Shared progress of the timed phase.
#[derive(Default)]
struct Progress {
    stop: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One closed-loop client: send, await, check, repeat, until the
/// progress says stop or `limit` queries were answered.
fn client_loop(
    svc: &Service,
    client: &mut Client,
    mut plan: Plan,
    limit: u64,
    progress: &Progress,
    sp: &mut impl Spans,
) -> Log {
    let mut log = Log::new(plan.sample_seed);
    while log.answered < limit && !progress.stop.load(Ordering::Relaxed) {
        let (id, hit) = plan.next();
        let src = svc.source(id);
        sp.op(id);
        let t = Instant::now();
        let layer = if hit {
            Layer::RoundTripHit
        } else {
            Layer::RoundTripMiss
        };
        let resp = sp.time(layer, || {
            client.query(&src, Expectation::Allowed, PINNED_BY, Budget::default())
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let verdict = match resp {
            Ok(Response::Result { cached, line }) => {
                check_reply(&svc.lines, id, hit, cached, &line).map(|states| (states, line))
            }
            Ok(Response::Error(e)) => Err(format!("program {id}: server error: {e}")),
            Err(e) => Err(format!("program {id}: transport: {e}")),
        };
        let ms = match verdict {
            Ok((states, line)) => {
                log.states += states;
                if hit {
                    log.hit_sample.offer((id, line));
                } else {
                    log.miss_sample.offer((id, line));
                }
                ms
            }
            Err(e) => {
                log.failures.push(e);
                f64::INFINITY
            }
        };
        if hit {
            log.hits.offer(ms);
            progress.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            log.misses.offer(ms);
            progress.misses.fetch_add(1, Ordering::Relaxed);
        }
        log.answered += 1;
    }
    log.end = Some(Instant::now());
    log
}

/// Run every client concurrently; returns the merged log and the wall
/// from start to the last client's last reply. `limit` caps each
/// client's queries; `until` (checked every 20 ms by this thread) ends
/// an open-ended phase.
fn drive(
    svc: &mut Service,
    stream: u64,
    phase: u64,
    limit: u64,
    until: impl Fn(Duration, &Progress) -> bool,
    tracers: &mut [Tracer],
) -> (Log, Duration) {
    let progress = Progress::default();
    let mut clients = std::mem::take(&mut svc.clients);
    let t0 = Instant::now();
    let logs: Vec<Log> = std::thread::scope(|s| {
        let svc = &*svc;
        let progress = &progress;
        let mut tracers = tracers.iter_mut();
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let plan = Plan::new(svc.seed, stream, phase, c as u64);
                let tracer = tracers.next();
                s.spawn(move || match tracer {
                    Some(tr) => client_loop(svc, client, plan, limit, progress, tr),
                    None => client_loop(svc, client, plan, limit, progress, &mut NoTrace),
                })
            })
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            if until(t0.elapsed(), progress) {
                progress.stop.store(true, Ordering::Relaxed);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    svc.clients = clients;
    let end = logs.iter().filter_map(|l| l.end).max().unwrap_or(t0);
    let mut all = Log::new(0);
    for l in logs {
        all.absorb(l);
    }
    (all, end - t0)
}

/// Fold answered queries and their failures into the outcome.
fn account(out: &mut Outcome, answered: u64, failures: &[String]) {
    out.attempted += answered;
    for f in failures {
        out.fail(f.clone());
    }
}

/// The counters must show exactly the stream's hits and misses: one
/// exploration per distinct fresh program, nothing coalesced or
/// dropped.
fn check_stats(out: &mut Outcome, before: OracleStats, after: OracleStats, hits: u64, misses: u64) {
    let d = |a: u64, b: u64| a - b;
    let got = (
        d(after.hits, before.hits),
        d(after.misses, before.misses),
        d(after.explorations, before.explorations),
        d(after.coalesced, before.coalesced),
        d(after.corrupt_dropped, before.corrupt_dropped),
    );
    out.check(got == (hits, misses, misses, 0, 0), || {
        format!(
            "oracle counters (hits, misses, explorations, coalesced, corrupt) moved by {got:?}, \
             expected ({hits}, {misses}, {misses}, 0, 0)"
        )
    });
}

/// Whether two records agree on everything but wall time.
fn same_record(a: &TestReport, b: &TestReport) -> bool {
    TestReport {
        wall: Duration::ZERO,
        ..a.clone()
    } == TestReport {
        wall: Duration::ZERO,
        ..b.clone()
    }
}

/// Re-check the clients' seeded samples of served replies against a
/// direct `run_job` of the same program.
fn recheck(out: &mut Outcome, svc: &Service, log: &Log) -> usize {
    let sample: Vec<&(u64, String)> = log
        .hit_sample
        .items
        .iter()
        .chain(&log.miss_sample.items)
        .collect();
    for (id, line) in &sample {
        let direct = Job::from_source(&svc.source(*id), Expectation::Allowed, PINNED_BY)
            .map(|job| run_job(&job, &harness()));
        let served = TestReport::from_json_line(line);
        let ok = matches!((&direct, &served), (Ok(d), Ok(s)) if same_record(d, s));
        out.check(ok, || {
            format!("program {id}: served record differs from a direct run_job")
        });
    }
    sample.len()
}

/// The `p`-th percentile of round trips `xs` in ms, `None` when too few
/// samples lie beyond it. A failed query is infinitely slow, which
/// reads as the largest finite number.
fn latency(xs: &[f64], p: f64) -> Option<f64> {
    tail(xs, p).map(|v| if v.is_finite() { v } else { f64::MAX })
}

/// Note the hit and miss round-trip percentiles with their sample
/// counts (`null` where a tail has too few samples beyond it).
fn note_latencies(out: &mut Outcome, log: &Log) {
    for (class, r) in [("hit", &log.hits), ("miss", &log.misses)] {
        for (p, name) in [(0.5, "p50"), (0.99, "p99")] {
            let v = latency(&r.items, p).map_or("null".to_owned(), |v| v.to_string());
            out.note(&format!("{class}_{name}_ms"), v);
        }
        out.note(&format!("{class}_queries"), r.seen);
        out.note(&format!("{class}_samples"), r.items.len());
    }
}

/// The untraced run. `ops_per_s` is answered queries per second; the
/// round-trip percentiles of all queries and of hits and misses apart,
/// with their sample counts, go to the report line.
///
/// The timed phase lasts `ctx.seconds`, extended (by at most
/// [`MAX_EXTENSION`]) until each class has the samples its p99 needs.
pub fn run(ctx: &RunCtx, out: &mut Outcome) -> Result<(), String> {
    let timed_setup = |rep: usize| -> Result<(Service, Duration), String> {
        let t = Instant::now();
        let svc = Service::start(&ctx.work.join(format!("store-{rep}")), ctx.seed)?;
        Ok((svc, t.elapsed()))
    };
    let (mut svc, t) = timed_setup(0)?;
    let mut setups = vec![t];

    let need = samples_for_tail(0.99) as u64;
    let seconds = ctx.seconds;
    let before = svc.oracle.stats();
    let (log, wall) = drive(
        &mut svc,
        0,
        0,
        u64::MAX,
        |t, p| {
            let enough =
                p.hits.load(Ordering::Relaxed) >= need && p.misses.load(Ordering::Relaxed) >= need;
            (t >= seconds && enough) || t >= seconds + MAX_EXTENSION
        },
        &mut [],
    );
    let rss = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    let after = svc.oracle.stats();
    account(out, log.answered, &log.failures);
    check_stats(out, before, after, log.hits.seen, log.misses.seen);
    let rechecked = recheck(out, &svc, &log);
    Service::stop(svc);
    for rep in 1..SETUP_REPS {
        let (svc, t) = timed_setup(rep)?;
        setups.push(t);
        Service::stop(svc);
    }

    out.metric("setup_s", median_secs(&setups), "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("ops_per_s", log.answered as f64 / wall.as_secs_f64(), "1/s");
    note_latencies(out, &log);
    for (class, r) in [("hit", &log.hits), ("miss", &log.misses)] {
        out.check(r.items.len() >= need as usize, || {
            format!("{} {class} samples, fewer than a p99 needs", r.items.len())
        });
    }

    out.note("stored_programs", STORED);
    out.note("clients", CLIENTS);
    out.note("loop", "\"closed\"");
    out.note("timed_s", wall.as_secs_f64());
    out.note("miss_states_per_s", log.states as f64 / wall.as_secs_f64());
    out.note("setup_samples", SETUP_REPS);
    out.note("rechecked_replies", rechecked);
    Ok(())
}

/// The traced run, in three phases of [`TRACED_QUERIES`] queries per
/// client after a warm-up: the stream untraced over TCP and the same
/// stream traced over TCP, alternating in [`TRACED_ROUNDS`] rounds
/// (their walls give the tracing overhead), then a stream answered in
/// process by `Oracle::query` with spans around parse, key and query.
/// Fresh programs are new in every round.
pub fn run_traced(ctx: &RunCtx, out: &mut Outcome) -> Result<Tracer, String> {
    let mut svc = Service::start(&ctx.work.join("store-traced"), ctx.seed)?;
    let t0 = Instant::now();
    let before = svc.oracle.stats();
    let never = |_: Duration, _: &Progress| false;

    let (warm, _) = drive(
        &mut svc,
        0,
        2 * TRACED_ROUNDS + 1,
        WARMUP_QUERIES,
        never,
        &mut [],
    );
    let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::starting_at(t0)).collect();
    let (mut untraced, mut traced) = (Log::new(0), Log::new(0));
    let (mut untraced_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let per_round = TRACED_QUERIES / TRACED_ROUNDS;
    for r in 0..TRACED_ROUNDS {
        let (log, wall) = drive(&mut svc, 1 + r, 2 * r, per_round, never, &mut []);
        untraced.absorb(log);
        untraced_wall += wall;
        let (log, wall) = drive(&mut svc, 1 + r, 2 * r + 1, per_round, never, &mut tracers);
        traced.absorb(log);
        traced_wall += wall;
    }
    let mut in_process: Vec<(Tracer, InProcess)> = Vec::new();
    std::thread::scope(|s| {
        let svc = &svc;
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let plan = Plan::new(svc.seed, 100, 2 * TRACED_ROUNDS, c);
                s.spawn(move || answer_in_process(svc, plan, t0))
            })
            .collect();
        in_process = handles
            .into_iter()
            .map(|h| h.join().expect("in-process client panicked"))
            .collect();
    });

    let after = svc.oracle.stats();
    let mut hits = warm.hits.seen + untraced.hits.seen + traced.hits.seen;
    let mut misses = warm.misses.seen + untraced.misses.seen + traced.misses.seen;
    account(out, warm.answered, &warm.failures);
    account(out, untraced.answered, &untraced.failures);
    account(out, traced.answered, &traced.failures);
    let mut tr = Tracer::starting_at(t0);
    for t in tracers {
        tr.absorb(t);
    }
    let mut ip = InProcess::default();
    for (t, p) in in_process {
        tr.absorb(t);
        hits += p.query_hit_ns.len() as u64;
        misses += p.query_miss_ns.len() as u64;
        account(out, p.answered, &p.failures);
        ip.key_ns.extend(p.key_ns);
        ip.query_hit_ns.extend(p.query_hit_ns);
        ip.query_miss_ns.extend(p.query_miss_ns);
        ip.hit_path_ns.extend(p.hit_path_ns);
    }
    check_stats(out, before, after, hits, misses);

    let secs = |ns: &[u64]| -> f64 {
        if ns.is_empty() {
            0.0
        } else {
            median(&ns.iter().map(|&n| n as f64 / 1e9).collect::<Vec<_>>())
        }
    };
    // Round trips come from the untraced phase.
    let (hit_ms, miss_ms) = (&untraced.hits.items, &untraced.misses.items);
    let rtt_hit = latency(hit_ms, 0.5).unwrap_or(0.0) / 1e3;
    let d = |a: u64, b: u64| (a - b) as f64;
    out.metric("litmus.parse_s", tr.own_secs(Layer::Parse), "s");
    out.metric("service.key_s", secs(&ip.key_ns), "s");
    out.metric("service.query_hit_s", secs(&ip.query_hit_ns), "s");
    out.metric("service.query_miss_s", secs(&ip.query_miss_ns), "s");
    out.metric("service.transport_s", rtt_hit - secs(&ip.hit_path_ns), "s");
    for (name, xs, p) in [
        ("service.hit_p50_ms", hit_ms, 0.5),
        ("service.hit_p99_ms", hit_ms, 0.99),
        ("service.miss_p50_ms", miss_ms, 0.5),
        ("service.miss_p99_ms", miss_ms, 0.99),
    ] {
        let v = latency(xs, p);
        out.check(v.is_some(), || {
            format!("{name}: too few samples ({})", xs.len())
        });
        out.metric(name, v.unwrap_or(0.0), "ms");
    }
    out.metric("service.hits", d(after.hits, before.hits), "count");
    out.metric("service.misses", d(after.misses, before.misses), "count");
    out.metric(
        "service.explorations",
        d(after.explorations, before.explorations),
        "count",
    );
    out.metric(
        "service.coalesced",
        d(after.coalesced, before.coalesced),
        "count",
    );
    out.metric(
        "service.corrupt_dropped",
        d(after.corrupt_dropped, before.corrupt_dropped),
        "count",
    );
    out.metric(
        "trace.overhead_ratio",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64(),
        "ratio",
    );
    out.note("queries_per_phase", TRACED_QUERIES * CLIENTS as u64);
    out.note("untraced_s", untraced_wall.as_secs_f64());
    out.note("traced_s", traced_wall.as_secs_f64());
    out.note("in_process_hit_samples", ip.query_hit_ns.len());
    out.note("in_process_miss_samples", ip.query_miss_ns.len());
    Service::stop(svc);
    Ok(tr)
}

/// Per-call timings of the in-process phase, ns.
#[derive(Default)]
struct InProcess {
    key_ns: Vec<u64>,
    query_hit_ns: Vec<u64>,
    query_miss_ns: Vec<u64>,
    /// Parse plus `Oracle::query` of each hit: the server's work for a
    /// hit round trip.
    hit_path_ns: Vec<u64>,
    answered: u64,
    failures: Vec<String>,
}

/// Answer one client's stream in process: parse, key, `Oracle::query`,
/// each in a span.
fn answer_in_process(svc: &Service, mut plan: Plan, t0: Instant) -> (Tracer, InProcess) {
    let mut tr = Tracer::starting_at(t0);
    let mut ip = InProcess::default();
    let cfg = svc.oracle.config();
    for _ in 0..TRACED_QUERIES {
        let (id, hit) = plan.next();
        let src = svc.source(id);
        tr.op(id);
        ip.answered += 1;
        tr.enter(Layer::Parse);
        let job = Job::from_source(&src, Expectation::Allowed, PINNED_BY);
        let parse_ns = tr.exit();
        let job = match job {
            Ok(j) => j,
            Err(e) => {
                ip.failures.push(format!("program {id}: {e}"));
                continue;
            }
        };
        tr.enter(Layer::Key);
        let _key = Query::from_harness(&job, cfg).key();
        ip.key_ns.push(tr.exit());
        tr.enter(if hit {
            Layer::QueryHit
        } else {
            Layer::QueryMiss
        });
        let o = svc.oracle.query(&job, &Budget::default());
        let q_ns = tr.exit();
        if hit {
            ip.query_hit_ns.push(q_ns);
            ip.hit_path_ns.push(parse_ns + q_ns);
        } else {
            ip.query_miss_ns.push(q_ns);
        }
        if let Err(e) = check_reply(&svc.lines, id, hit, o.cached, &o.line).map(drop) {
            ip.failures.push(e);
        }
    }
    (tr, ip)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_mix_hits_and_unique_misses() {
        let mut p = Plan::new(9, 0, 0, 1);
        let mut fresh = std::collections::BTreeSet::new();
        let mut hits = 0;
        for _ in 0..4000 {
            let (id, hit) = p.next();
            if hit {
                assert!(id < STORED);
                hits += 1;
            } else {
                assert!(id >= STORED);
                assert!(fresh.insert(id), "fresh ids never repeat");
            }
        }
        let share = f64::from(hits) / 4000.0;
        assert!((0.93..0.97).contains(&share), "hit share {share}");
        assert_ne!(fresh_id(0, 1, 0), fresh_id(1, 0, 0));
        assert_ne!(fresh_id(0, 0, 0), fresh_id(0, 1, 0));
    }

    #[test]
    fn replies_are_checked_against_the_stored_lines() {
        let lines = vec!["stored".to_owned()];
        assert!(check_reply(&lines, 0, true, true, "stored").is_ok());
        assert!(check_reply(&lines, 0, true, true, "other").is_err());
        assert!(check_reply(&lines, 0, true, false, "stored").is_err());
        assert!(check_reply(&lines, 9, false, true, "x").is_err());
        assert!(check_reply(&lines, 9, false, false, "not json").is_err());
    }
}
