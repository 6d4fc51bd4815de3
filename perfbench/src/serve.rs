//! The `serve-hot` and `serve-cold` workloads: an in-process
//! `pvs_serve::Server` driven over TCP by the closed-loop client.
//!
//! * `serve-hot` prefills a memory-only cache with every published cell
//!   and draws requests from that set, so every timed request is a
//!   memory hit: the TCP edge, `proto` and the cache read path work, the
//!   engine does not.
//! * `serve-cold` draws i.i.d. keys that rarely repeat against a server
//!   with a spill directory, so the engine, single-flight admission and
//!   cache inserts with spill writes do the work.
//!
//! A window is cut into rounds, one server lifetime each. Every round
//! starts a fresh server with a timed set-up, so `setup_s` is a median
//! over set-ups spread across the whole run. A `serve-cold` round ends
//! after [`COLD_ROUND_REQUESTS`] requests, which keeps the miss mix and
//! the cache's memory the same however far a run gets; a `serve-hot`
//! round ends after a [`HOT_ROUNDS`]th of the window. The clock is
//! paused between rounds.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicI64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pvs_analyze::json::{parse, Value};
use pvs_core::engine::Engine;
use pvs_core::pool::default_threads;
use pvs_serve::cache::{ShardedCache, DEFAULT_SHARDS};
use pvs_serve::proto::{cell_response, error_response, parse_line, Op};
use pvs_serve::{CellSource, CellStore, Request, Server, ServerOptions, StoreOptions};

use crate::catalog::{Values, ENGINE_BUCKETS};
use crate::client::{cell_body, closed_loop, is_ok, Conn, Gen, LoadRun, Stop};
use crate::keys::{
    cell_line, hot_cells, partition_probe_cells, probe_cells, ColdStream, Rng, COLD_ROUND_REQUESTS,
};
use crate::stats::{median, nearest_rank, ok_latencies, self_times, spread_pct, unattributed_us};
use crate::trace::{maybe_time, merge, SpanLog};
use crate::{peak_rss_mb, Args, Outcome};

/// Persistent load connections.
const CONNECTIONS: u64 = 2;
/// Server lifetimes a `serve-hot` window is cut into.
const HOT_ROUNDS: u32 = 24;
/// Untraced/traced window pairs of a traced run.
const TRACE_PAIRS: u32 = 3;
/// Connections used to fetch every hot key for the output check.
const CHECK_CONNECTIONS: usize = 8;
/// Successful cold bodies kept (by seeded sample) for the output check.
const COLD_CHECK_SAMPLE: usize = 64;
/// Requests pushed through the in-process layer pipeline when traced.
const PIPELINE_REQUESTS: u64 = 256;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Memory hits on the published cells.
    Hot,
    /// Misses on an i.i.d. key stream, with disk spill.
    Cold,
}

/// A running server plus the spill directory it owns (if any).
struct Live {
    server: Server,
    spill: Option<PathBuf>,
}

impl Live {
    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    fn store(&self) -> &Arc<CellStore> {
        self.server.store()
    }

    fn stop(self) {
        let Live { server, spill } = self;
        drop(server);
        if let Some(dir) = spill {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Scratch space inside the working directory (the checkout).
fn scratch(name: &str) -> PathBuf {
    Path::new(".bench_out").join(format!("{name}-{}", std::process::id()))
}

/// A fresh scratch directory.
fn fresh_dir(name: &str) -> Result<PathBuf, String> {
    let dir = scratch(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Start server number `n` of this run; a `serve-hot` server is
/// prefilled with every published cell.
fn start(kind: Kind, hot: &[Request], n: usize) -> Result<Live, String> {
    let spill = match kind {
        Kind::Cold => Some(fresh_dir(&format!("spill-{n}"))?),
        Kind::Hot => None,
    };
    let server = Server::start(ServerOptions {
        store: StoreOptions {
            threads: default_threads(),
            spill_dir: spill.clone(),
            ..StoreOptions::default()
        },
        ..ServerOptions::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let live = Live { server, spill };
    if kind == Kind::Hot {
        prefill(live.store(), hot)?;
    }
    Ok(live)
}

/// Compute every published cell into the store's cache, in process,
/// from one caller per pool thread. One caller alone leaves a pool
/// thread idle between cells, and each cell then waits for a thread
/// wake-up, whose cost on a shared host swings with the host's load
/// (sequential set-ups doubled from one set of runs to the next).
fn prefill(store: &Arc<CellStore>, hot: &[Request]) -> Result<(), String> {
    let chunk = hot.len().div_ceil(default_threads());
    std::thread::scope(|scope| {
        let handles: Vec<_> = hot
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .try_for_each(|r| store.get(r).map(|_| ()).map_err(|e| e.to_string()))
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("prefill thread panicked"))
    })
}

/// Serve the probe cells over TCP, each on a fresh connection: the last
/// step of a `serve-cold` set-up.
fn probe(addr: SocketAddr) -> Result<(), String> {
    for cell in probe_cells() {
        let mut conn = Conn::open(addr).map_err(|e| format!("probe connect: {e}"))?;
        let resp = conn
            .call(&cell_line(&cell))
            .map_err(|e| format!("probe: {e}"))?;
        if !is_ok(&resp) {
            return Err(format!("probe answered {resp}"));
        }
    }
    Ok(())
}

/// The request generator of one lane: hot keys drawn uniformly by seed,
/// or the cold stream.
fn generator(kind: Kind, seed: u64, hot: &Arc<Vec<Request>>, lane: u64) -> Gen {
    match kind {
        Kind::Hot => {
            let hot = Arc::clone(hot);
            let mut rng = Rng::new(seed, lane);
            Box::new(move || hot[rng.below(hot.len())].clone())
        }
        Kind::Cold => {
            let mut stream = ColdStream::new(seed, lane);
            Box::new(move || stream.next_request())
        }
    }
}

/// What a window of rounds produced.
#[derive(Default)]
struct Window {
    /// The client's view, rounds concatenated.
    run: LoadRun,
    /// Cell requests the servers counted.
    requests: u64,
    /// Of those, memory and disk hits.
    hits: u64,
    /// Rounds (server lifetimes).
    rounds: u64,
    /// Per round, the server's `stats` delta over the round, when asked.
    stats: Vec<ServerStats>,
    /// Peak resident memory at the end of the first round.
    peak_rss_mb: Option<f64>,
}

/// One run's serving state: the live server, the client lanes, and the
/// set-up time of every server started so far.
struct Serving {
    kind: Kind,
    seed: u64,
    hot: Arc<Vec<Request>>,
    gens: Vec<Gen>,
    live: Option<Live>,
    servers: usize,
    rounds: u64,
    /// Longest `serve-hot` round.
    hot_round: Duration,
    /// Seconds each server set-up took.
    setups: Vec<f64>,
}

impl Serving {
    /// The serving state of one run, after one untimed set-up, so lazy
    /// initialization (code paging, allocator arenas) is not in `setup_s`.
    fn new(kind: Kind, args: &Args) -> Result<Serving, String> {
        let hot = Arc::new(hot_cells());
        let gens = (0..CONNECTIONS)
            .map(|lane| generator(kind, args.seed, &hot, lane))
            .collect();
        let mut serving = Serving {
            kind,
            seed: args.seed,
            hot,
            gens,
            live: None,
            servers: 0,
            rounds: 0,
            hot_round: Duration::from_secs_f64(args.seconds / f64::from(HOT_ROUNDS)),
            setups: Vec::new(),
        };
        serving.server()?;
        serving.stop_server();
        serving.setups.clear();
        Ok(serving)
    }

    /// The live server, started if the last round stopped it. A start is
    /// timed: `serve-hot` through its prefill, `serve-cold` through its
    /// first served cells.
    fn server(&mut self) -> Result<&Live, String> {
        if self.live.is_none() {
            let t = Instant::now();
            let live = start(self.kind, &self.hot, self.servers)?;
            if self.kind == Kind::Cold {
                probe(live.addr())?;
            }
            self.setups.push(t.elapsed().as_secs_f64());
            self.live = Some(live);
            self.servers += 1;
        }
        Ok(self.live.as_ref().expect("server is live"))
    }

    /// Stop the live server, if any, and remove its spill directory.
    fn stop_server(&mut self) {
        if let Some(done) = self.live.take() {
            done.stop();
        }
    }

    /// Rounds of closed-loop load until `limit` of round time has gone
    /// by. With `stats`, each round is bracketed by `stats` delta calls.
    fn window(
        &mut self,
        limit: Duration,
        stats: bool,
        trace: Option<Instant>,
    ) -> Result<Window, String> {
        let seed = self.seed;
        let keep_cold = move |rid: u64| Rng::new(seed ^ 0x5EED, rid).next_u64().is_multiple_of(8);
        let keep: &(dyn Fn(u64) -> bool + Sync) = if self.kind == Kind::Cold {
            &keep_cold
        } else {
            &|_| false
        };
        let mut out = Window::default();
        while out.run.elapsed < limit {
            // Set up first: the round's clock starts after it.
            let addr = self.server()?.addr();
            if stats {
                // Drops the set-up's own counts from the next delta.
                stats_delta(addr)?;
            }
            let left = limit - out.run.elapsed;
            let budget = AtomicI64::new(COLD_ROUND_REQUESTS);
            let stop = Stop {
                round: self.rounds,
                deadline: Instant::now()
                    + match self.kind {
                        Kind::Hot => left.min(self.hot_round),
                        Kind::Cold => left,
                    },
                budget: (self.kind == Kind::Cold).then_some(&budget),
            };
            let count = |live: &Live, name: &str| live.store().registry().counter(name);
            let live = self.server()?;
            let (requests, hits) = (
                count(live, "serve.requests"),
                count(live, "serve.cache.hits") + count(live, "serve.cache.disk_hits"),
            );
            let run = closed_loop(addr, &mut self.gens, &stop, keep, trace);
            let live = self.server()?;
            out.requests += count(live, "serve.requests") - requests;
            out.hits +=
                count(live, "serve.cache.hits") + count(live, "serve.cache.disk_hits") - hits;
            if stats {
                out.stats.push(stats_delta(addr)?);
            }
            // Too little window left for a lane to send anything.
            let empty = run.samples.is_empty();
            out.run.absorb(run);
            out.rounds += 1;
            self.rounds += 1;
            // Set-up plus one server lifetime. Over later restarts the
            // allocator's retained memory climbs in steps to a plateau whose
            // height is left to chance (which thread got which arena), and
            // how many rounds a window holds depends on throughput.
            out.peak_rss_mb.get_or_insert_with(peak_rss_mb);
            self.stop_server();
            if empty {
                break;
            }
        }
        Ok(out)
    }
}

/// Direct engine render of `request`, the bytes a served body must equal.
fn direct_render(request: &Request, log: &mut Option<&mut SpanLog>) -> String {
    let cell = request.resolve().expect("generated requests are valid");
    let mut engine = Engine::new(cell.machine);
    if let Some(adversity) = cell.adversity {
        engine = engine.with_adversity(adversity);
    }
    let bucket = ENGINE_BUCKETS
        .iter()
        .find(|(_, lo, hi)| (*lo..=*hi).contains(&cell.procs))
        .map_or("other", |(name, _, _)| name);
    let job = vec![(cell.phases, cell.procs)];
    let reports = maybe_time(log, format!("engine.cell.{bucket}"), None, || {
        engine.run_sweep_threads(job, 1)
    });
    pvs_report::json::perf_report(&reports[0])
}

/// Compare served bodies with direct renders.
fn check_bodies<'a>(
    served: impl IntoIterator<Item = (&'a Request, String)>,
    log: &mut Option<&mut SpanLog>,
) -> Result<(), String> {
    for (request, body) in served {
        if body != direct_render(request, log) {
            return Err(format!(
                "served body differs from direct render for {}",
                request.canonical_key()
            ));
        }
    }
    Ok(())
}

/// Fetch every hot key over TCP (several connections) and compare each
/// body with a direct render.
fn check_hot(
    addr: SocketAddr,
    hot: &[Request],
    log: &mut Option<&mut SpanLog>,
) -> Result<(), String> {
    let chunk = hot.len().div_ceil(CHECK_CONNECTIONS);
    let parts: Vec<Result<Vec<(&Request, String)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = hot
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut conn = Conn::open(addr).map_err(|e| format!("check connect: {e}"))?;
                    part.iter()
                        .map(|r| {
                            let resp = conn
                                .call(&cell_line(r))
                                .map_err(|e| format!("check fetch: {e}"))?;
                            let body = cell_body(&resp).ok_or_else(|| {
                                format!("{}: not a cell response: {resp}", r.canonical_key())
                            })?;
                            Ok((r, body.to_string()))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    for part in parts {
        check_bodies(part?, log)?;
    }
    Ok(())
}

/// Compare a sample of the bodies kept from a cold window.
fn check_cold(kept: &[(Request, String)], log: &mut Option<&mut SpanLog>) -> Result<(), String> {
    check_bodies(
        kept.iter()
            .take(COLD_CHECK_SAMPLE)
            .map(|(r, b)| (r, b.clone())),
        log,
    )
}

/// Run one serve workload.
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let mut serving = Serving::new(kind, args)?;
    let outcome = if args.trace {
        traced(&mut serving, args)
    } else {
        untraced(&mut serving, args)
    };
    serving.stop_server();
    let mut outcome = outcome?;
    if kind == Kind::Cold {
        let (panics, note) = partition_probe(args.seed);
        outcome
            .values
            .insert("engine.partition_panics".into(), panics as f64);
        outcome.notes.push(note);
    }
    Ok(outcome)
}

/// Render every partition probe cell directly, outside the timed window,
/// and count the renders that panic. Returns the count and a note.
fn partition_probe(seed: u64) -> (usize, String) {
    let cells = partition_probe_cells(seed);
    let panics = cells
        .iter()
        .filter(|r| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| direct_render(r, &mut None)))
                .is_err()
        })
        .count();
    let note = format!(
        "known defect: {panics} of {} seeded X1 fault plans panic in the engine \
         (torus ring partitioned); fault plans are kept out of the timed stream",
        cells.len()
    );
    (panics, note)
}

/// The end-to-end run: rounds of load until `--seconds` of window time,
/// then the output check.
fn untraced(serving: &mut Serving, args: &Args) -> Result<Outcome, String> {
    let w = serving.window(Duration::from_secs_f64(args.seconds), false, None)?;
    let setup_s = median(&serving.setups).expect("a round ran");
    let set_ups = serving.setups.len();
    let setup_range = (
        serving.setups.iter().copied().fold(f64::INFINITY, f64::min),
        serving.setups.iter().copied().fold(0.0, f64::max),
    );
    let checked = match serving.kind {
        Kind::Hot => {
            let addr = serving.server()?.addr();
            check_hot(addr, &serving.hot, &mut None)
        }
        Kind::Cold => check_cold(&w.run.kept, &mut None),
    };
    let lat = ok_latencies(&w.run.samples);
    if lat.is_empty() {
        return Err("no request succeeded".to_string());
    }
    let window_s = w.run.elapsed.as_secs_f64();
    let mut values = Values::new();
    values.insert("throughput_rps".into(), lat.len() as f64 / window_s);
    values.insert(
        "latency_p50_us".into(),
        nearest_rank(&lat, 0.5).expect("samples"),
    );
    values.insert(
        "latency_p90_us".into(),
        nearest_rank(&lat, 0.9).expect("samples"),
    );
    values.insert("events_per_s".into(), w.requests as f64 / window_s);
    values.insert("setup_s".into(), setup_s);
    values.insert("peak_rss_mb".into(), w.peak_rss_mb.expect("a round ran"));
    let attempted = w.run.attempted();
    let notes = vec![
        format!(
            "{} ok latency samples over {window_s:.3} s in {} server rounds, \
             {CONNECTIONS} connections, closed loop",
            lat.len(),
            w.rounds
        ),
        format!(
            "setup_s = median of {set_ups} timed set-ups, one per round (range {:.6}–{:.6} s)",
            setup_range.0, setup_range.1
        ),
        format!(
            "cache hits: {} of {} requests ({:.4})",
            w.hits,
            w.requests,
            ratio(w.hits as f64, w.requests as f64)
        ),
    ];
    Ok(Outcome {
        problem: checked.err(),
        attempted,
        failed: w.run.failed(),
        values,
        notes,
    })
}

/// Numbers from a `stats` response.
struct ServerStats {
    counters: BTreeMap<String, f64>,
    peak_depth: f64,
    busy_count: f64,
    busy_p50: f64,
    busy_p90: f64,
}

fn stats_delta(addr: SocketAddr) -> Result<ServerStats, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("stats connect: {e}"))?;
    let resp = conn
        .call(r#"{"op":"stats","mode":"delta"}"#)
        .map_err(|e| format!("stats: {e}"))?;
    let doc = parse(&resp).map_err(|e| format!("stats response: {e}"))?;
    let section = |name: &str| -> BTreeMap<String, f64> {
        match doc.get(name) {
            Some(Value::Object(members)) => members
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => BTreeMap::new(),
        }
    };
    let busy = doc.get("hists").and_then(|h| h.get("serve.hist.busy_us"));
    let busy = |q: &str| busy.and_then(|b| b.num(q)).unwrap_or(0.0);
    Ok(ServerStats {
        counters: section("counters"),
        peak_depth: section("gauges")
            .get("serve.queue.peak_depth")
            .copied()
            .unwrap_or(0.0),
        busy_count: busy("count"),
        busy_p50: busy("p50"),
        busy_p90: busy("p90"),
    })
}

/// `num / den`, or 0 without a base.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Served bodies as `(content key, body)`.
type Bodies = Vec<(String, String)>;

/// Push [`PIPELINE_REQUESTS`] requests through the layers in process,
/// one `pipeline#<rid>` root span each. Returns the served bodies and
/// the number of failed requests.
fn pipeline(
    store: &Arc<CellStore>,
    gen: &mut Gen,
    log: &mut SpanLog,
) -> Result<(Bodies, u64), String> {
    let mut bodies = Vec::new();
    let mut failed = 0;
    for rid in 0..PIPELINE_REQUESTS {
        let line = cell_line(&gen());
        let root = log.enter(format!("pipeline#{rid}"), None);
        let request = match log.time("proto.parse", Some(root), || parse_line(&line)) {
            Ok(Op::Cell { request, .. }) => request,
            other => return Err(format!("pipeline parse: {other:?}")),
        };
        log.time("workload.resolve", Some(root), || {
            (request.resolve().is_ok(), request.key_hash())
        });
        let span = log.enter("store.get", Some(root));
        let got = store.get(&request);
        log.rename(
            span,
            match &got {
                Ok(resp) if matches!(resp.source, CellSource::Memory | CellSource::Disk) => {
                    "store.hit"
                }
                Ok(_) => "store.miss",
                Err(_) => "store.error",
            },
        );
        log.exit(span);
        match got {
            Ok(resp) => {
                log.time("proto.encode", Some(root), || cell_response(&resp));
                bodies.push((resp.key, resp.body.to_string()));
            }
            Err(e) => {
                log.time("proto.encode", Some(root), || error_response(&e));
                failed += 1;
            }
        }
        log.exit(root);
    }
    Ok((bodies, failed))
}

/// A standalone cache holding `bodies`: reads of resident keys (hot), or
/// inserts with spill plus miss probes (cold). Returns spilled bytes per
/// cell on cold.
fn standalone_cache(
    kind: Kind,
    seed: u64,
    bodies: &Bodies,
    log: &mut SpanLog,
) -> Result<f64, String> {
    match kind {
        Kind::Hot => {
            let cache = ShardedCache::new(DEFAULT_SHARDS, None);
            for (key, body) in bodies {
                cache
                    .insert(key, body.as_str().into())
                    .map_err(|e| format!("cache insert: {e}"))?;
            }
            let mut rng = Rng::new(seed, 99);
            for _ in 0..PIPELINE_REQUESTS {
                let key = &bodies[rng.below(bodies.len())].0;
                if log
                    .time("cache.get_memory", None, || cache.get_memory(key))
                    .is_none()
                {
                    return Err(format!("cache lost resident key {key}"));
                }
            }
            Ok(0.0)
        }
        Kind::Cold => {
            let dir = fresh_dir("cache")?;
            let cache = ShardedCache::new(DEFAULT_SHARDS, Some(dir.clone()));
            for (key, body) in bodies {
                log.time("cache.insert", None, || {
                    cache.insert(key, body.as_str().into())
                })
                .map_err(|e| format!("cache insert: {e}"))?;
            }
            let spilled: u64 = std::fs::read_dir(&dir)
                .map_err(|e| format!("cache dir: {e}"))?
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum();
            let mut probe = ColdStream::new(seed, 98);
            for _ in 0..PIPELINE_REQUESTS {
                let key = probe.next_request().key_hash();
                log.time("cache.get_memory", None, || cache.get_memory(&key));
            }
            let _ = std::fs::remove_dir_all(&dir);
            Ok(ratio(spilled as f64, bodies.len() as f64))
        }
    }
}

/// The traced run: untraced and traced windows in turn (the medians of
/// their rates give the tracing overhead; the untraced ones are
/// bracketed by `stats` deltas), the in-process layer pipeline, a
/// standalone cache, and the output check with engine spans.
fn traced(serving: &mut Serving, args: &Args) -> Result<Outcome, String> {
    let window = Duration::from_secs_f64(args.seconds / f64::from(2 * TRACE_PAIRS));
    let epoch = Instant::now();
    let mut values = Values::new();
    let mut plain = Window::default();
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut traced_runs = LoadRun::default();
    let rate = |r: &LoadRun| {
        ratio(
            ok_latencies(&r.samples).len() as f64,
            r.elapsed.as_secs_f64(),
        )
    };
    for _ in 0..TRACE_PAIRS {
        let a = serving.window(window, true, None)?;
        plain_rates.push(rate(&a.run));
        plain.run.absorb(a.run);
        plain.stats.extend(a.stats);
        let b = serving.window(window, false, Some(epoch))?;
        traced_rates.push(rate(&b.run));
        traced_runs.absorb(b.run);
    }
    let (plain_rate, traced_rate) = (
        median(&plain_rates).expect("windows ran"),
        median(&traced_rates).expect("windows ran"),
    );
    values.insert(
        "trace.overhead_pct".into(),
        (ratio(plain_rate, traced_rate) - 1.0) * 100.0,
    );
    values.insert("trace.untraced_spread_pct".into(), spread_pct(&plain_rates));

    // Server numbers: counters summed over the untraced rounds; busy
    // percentiles are the median over those rounds of each one's delta.
    let busy = |q: fn(&ServerStats) -> f64| {
        let per_round: Vec<f64> = plain
            .stats
            .iter()
            .filter(|s| s.busy_count > 0.0)
            .map(q)
            .collect();
        median(&per_round).unwrap_or(0.0)
    };
    let (busy_p50, busy_p90) = (busy(|s| s.busy_p50), busy(|s| s.busy_p90));
    let client_p50 = nearest_rank(&ok_latencies(&plain.run.samples), 0.5).unwrap_or(0.0);
    values.insert("server.busy_us_p50".into(), busy_p50);
    values.insert("server.busy_us_p90".into(), busy_p90);
    values.insert(
        "server.unattributed_us_p50".into(),
        unattributed_us(client_p50, busy_p50),
    );
    let c = |name: &str| -> f64 {
        plain
            .stats
            .iter()
            .filter_map(|s| s.counters.get(name))
            .fold(0.0, |sum, v| sum + v)
    };
    values.insert(
        "store.hit_ratio".into(),
        ratio(
            c("serve.cache.hits") + c("serve.cache.disk_hits"),
            c("serve.requests"),
        ),
    );
    values.insert(
        "store.batched_ratio".into(),
        ratio(
            c("serve.cache.batched_misses"),
            c("serve.cache.misses") + c("serve.cache.batched_misses"),
        ),
    );
    values.insert("store.sim_runs".into(), c("serve.sim.runs"));
    values.insert(
        "store.queue_peak_depth".into(),
        plain.stats.iter().map(|s| s.peak_depth).fold(0.0, f64::max),
    );
    values.insert("store.rejected".into(), c("serve.queue.rejected"));

    let mut log = SpanLog::new(epoch);
    let store = Arc::clone(serving.server()?.store());
    let mut gen = generator(serving.kind, args.seed, &serving.hot, CONNECTIONS);
    let (bodies, pipeline_failed) = pipeline(&store, &mut gen, &mut log)?;
    values.insert(
        "cache.spill_bytes_per_cell".into(),
        standalone_cache(serving.kind, args.seed, &bodies, &mut log)?,
    );

    // Output check, with an engine span around every direct render.
    let checked = match serving.kind {
        Kind::Hot => check_hot(serving.server()?.addr(), &serving.hot, &mut Some(&mut log)),
        Kind::Cold => check_cold(&plain.run.kept, &mut Some(&mut log)),
    };
    let attempted = plain.run.attempted() + traced_runs.attempted() + PIPELINE_REQUESTS;
    let failed = plain.run.failed() + traced_runs.failed() + pipeline_failed;
    let mut logs = traced_runs.logs;
    logs.push(log);
    let buf = merge(logs);
    let layers = self_times(buf.events());
    let mean_self_us = |layer: &str| {
        layers
            .get(layer)
            .map_or(0.0, |t| ratio(t.self_time as f64, t.spans as f64) / 1e3)
    };
    for (metric, layer) in [
        ("proto.parse_us", "proto.parse"),
        ("proto.encode_us", "proto.encode"),
        ("workload.resolve_us", "workload.resolve"),
        ("cache.get_memory_us", "cache.get_memory"),
        ("cache.insert_us", "cache.insert"),
        ("store.hit_us", "store.hit"),
        ("store.miss_us", "store.miss"),
    ] {
        values.insert(metric.into(), mean_self_us(layer));
    }
    for (bucket, _, _) in ENGINE_BUCKETS {
        values.insert(
            format!("engine.cell_us.{bucket}"),
            mean_self_us(&format!("engine.cell.{bucket}")),
        );
    }
    Ok(Outcome {
        problem: checked.err(),
        attempted,
        failed,
        values,
        notes: crate::trace_report(&buf, &layers, &args.workload, args.seed)?,
    })
}
