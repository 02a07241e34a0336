//! The `serve` workload: an in-process sp-serve daemon on
//! `127.0.0.1:0` with one worker per core, driven by a generator in the
//! same process in two phases.
//!
//! * Open loop: a seeded-Poisson schedule at [`RATE`] over one
//!   connection per core, every request timed from its intended send
//!   time, so a stall is charged to every request queued behind it. The
//!   first [`WARM_S`] seconds fill the result cache and are not
//!   measured. Process CPU per request comes from this phase.
//! * Closed loop: two connections per core, each sending its next
//!   request as soon as the last reply is read, so the workers never
//!   idle. Completions per second of this phase are the daemon's
//!   capacity for the mix.
//! * Simulation: after the daemon drains, every distinct key of the mix
//!   runs through `SimEngine::execute` in this process, round after
//!   round, timed without queueing or thread hand-offs.
//!
//! The mix has the shares of `spt loadgen`'s (60% point, 20% two-distance
//! sweep, 10% affinity, 10% ping over EM3D, MCF and MST at test scale);
//! only its distances are widened, to 363 cacheable keys against the
//! daemon's 256-entry result cache, so hits and misses both continue at
//! a steady share.
//!
//! After the daemon drains, every distinct reply is checked: all
//! replies for a key must carry the same `result` bytes, equal to
//! `SimEngine::execute` of the same command in this process.

use crate::digest;
use crate::report::{cpu_seconds, median, peak_rss_mb, quantile, Report};
use crate::spans::{self, span};
use sp_bench::Scale;
use sp_core::{compile_trace, recommend_distance, sweep_compiled_jobs_with};
use sp_serve::{Command, Json, Request, ResultCache, Server, ServerConfig, SimEngine};
use sp_trace::rng::SmallRng;
use sp_trace::CompiledTrace;
use sp_workloads::KernelKind;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load of the open loop, requests per second: about a quarter
/// of the mix's closed-loop capacity on a 2-core host (about 4 100
/// req/s), so the backlog stays bounded.
const RATE: f64 = 1000.0;
/// Shares of `--seconds` given to the open and the closed loop; the
/// simulation rounds get the rest.
const OPEN_SHARE: f64 = 0.4;
const CLOSED_SHARE: f64 = 0.3;
/// Leading part of the open loop that warms the result cache, unmeasured.
const WARM_S: f64 = 1.0;
/// Leading part of the closed loop, unmeasured while it ramps up.
const RAMP_S: f64 = 0.5;
/// Shortest `--seconds` the phases fit in.
const MIN_SECONDS: f64 = 5.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Windows each measured phase is cut into; metrics are medians over
/// windows.
const WINDOWS: usize = 6;
/// Fewest simulation rounds `sim_mrefs_per_s` takes its median over.
const SIM_ROUNDS: usize = 3;
/// Requests at the head of the open-loop schedule whose keys form the
/// pinned output surface.
const PINNED_REQUESTS: usize = 200;
/// The generator spins instead of sleeping for the last stretch before
/// a request is due.
const SPIN: Duration = Duration::from_micros(300);
/// How long the generator waits for one reply before failing the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// The daemon's default result-cache size (kept explicit: the keyspace
/// is sized against it).
const CACHE_ENTRIES: usize = 256;

const BENCHES: [&str; 3] = ["em3d", "mcf", "mst"];
/// Point runs take distances `1..=POINT_DISTANCES`.
const POINT_DISTANCES: u32 = 80;
/// Sweeps take the distances `[d, 2d]` for `d` in `1..=SWEEP_STARTS`.
const SWEEP_STARTS: u32 = 40;
/// The warm-up's distance, outside the mix: warming touches no key.
const WARM_DISTANCE: u32 = 100;

/// Every cacheable request body of the mix (no `id`), in a fixed order.
fn keyspace() -> Vec<String> {
    let mut keys = Vec::new();
    for b in BENCHES {
        for d in 1..=POINT_DISTANCES {
            keys.push(format!(
                "\"type\":\"point\",\"bench\":\"{b}\",\"scale\":\"test\",\"distance\":{d}"
            ));
        }
        for d in 1..=SWEEP_STARTS {
            keys.push(format!(
                "\"type\":\"sweep\",\"bench\":\"{b}\",\"scale\":\"test\",\
                 \"distances\":[{d},{}]",
                2 * d
            ));
        }
        keys.push(format!(
            "\"type\":\"affinity\",\"bench\":\"{b}\",\"scale\":\"test\""
        ));
    }
    keys
}

/// The keys of [`keyspace`] by request type.
struct Mix {
    points: Vec<usize>,
    sweeps: Vec<usize>,
    affinity: Vec<usize>,
}

impl Mix {
    fn new(keys: &[String]) -> Mix {
        let by_kind = |kind: &str| -> Vec<usize> {
            (0..keys.len())
                .filter(|&i| keys[i].starts_with(&format!("\"type\":\"{kind}\"")))
                .collect()
        };
        Mix {
            points: by_kind("point"),
            sweeps: by_kind("sweep"),
            affinity: by_kind("affinity"),
        }
    }

    /// One request of the mix: `None` for a ping, else a key index.
    fn draw(&self, rng: &mut SmallRng) -> Option<usize> {
        let from = match rng.gen_range(0..10u32) {
            0..=5 => &self.points,
            6..=7 => &self.sweeps,
            8 => &self.affinity,
            _ => return None,
        };
        Some(from[rng.gen_range(0..from.len())])
    }
}

/// The request line of `key` (a ping for `None`).
fn request_line(keys: &[String], id: usize, key: Option<usize>) -> String {
    match key {
        None => format!("{{\"id\":{id},\"type\":\"ping\"}}"),
        Some(k) => format!("{{\"id\":{id},{}}}", keys[k]),
    }
}

/// One scheduled request.
struct Planned {
    /// Intended send time, microseconds after the schedule starts.
    at_us: u64,
    /// Index into [`keyspace`]; `None` for a ping.
    key: Option<usize>,
    line: String,
}

/// The seeded open-loop schedule: Poisson arrivals at [`RATE`] for
/// `seconds`, each request drawn from the mix.
fn schedule(seed: u64, seconds: f64, keys: &[String], mix: &Mix) -> Vec<Planned> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let gap_us = 1e6 / RATE;
    let mut t = 0.0f64;
    let mut plan = Vec::new();
    loop {
        // Inverse-CDF exponential gap; 1-u is in (0, 1] so ln is finite.
        t += -(1.0 - rng.gen_f64()).ln() * gap_us;
        if t >= seconds * 1e6 {
            return plan;
        }
        let key = mix.draw(&mut rng);
        let line = request_line(keys, plan.len(), key);
        plan.push(Planned {
            at_us: t as u64,
            key,
            line,
        });
    }
}

/// What came back for one scheduled request.
struct Reply {
    /// Intended send to reply read, microseconds.
    latency_us: u64,
    /// How late the generator sent it, microseconds.
    late_us: u64,
    /// Reply read, microseconds after the schedule start.
    done_us: u64,
    /// The daemon's answer, or the error code it sent.
    outcome: Result<Answer, String>,
}

/// A successful reply.
struct Answer {
    /// Served from the result cache.
    cached: bool,
    /// The `result` payload, byte for byte.
    result: Arc<str>,
}

/// Split a reply line into its outcome. The `result` payload is the
/// last field, spliced verbatim by the daemon, so its bytes are the
/// text between `"result":` and the closing brace.
fn parse_reply(line: &str) -> Result<Answer, String> {
    let v = Json::parse(line).map_err(|e| format!("unparseable reply: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        let err = v.get("error").and_then(Json::as_str).unwrap_or("unknown");
        return Err(err.to_string());
    }
    let cached = v.get("cached").and_then(Json::as_bool).unwrap_or(false);
    let start = line.find(",\"result\":").ok_or("reply without result")? + ",\"result\":".len();
    let end = line
        .len()
        .checked_sub(1)
        .filter(|&e| e >= start)
        .ok_or("short reply")?;
    Ok(Answer {
        cached,
        result: line[start..end].into(),
    })
}

/// The distinct `result` payloads one connection has read. The replies
/// for a key repeat the same bytes, so each keeps a shared copy: the
/// generator's memory then does not grow with the number of replies,
/// which would carry the host's speed into `peak_rss_mb`.
#[derive(Default)]
struct Payloads(HashSet<Arc<str>>);

impl Payloads {
    fn parse(&mut self, line: &str) -> Result<Answer, String> {
        let mut a = parse_reply(line)?;
        match self.0.get(&a.result) {
            Some(seen) => a.result = Arc::clone(seen),
            None => {
                self.0.insert(Arc::clone(&a.result));
            }
        }
        Ok(a)
    }
}

/// One request/reply exchange on a fresh connection.
fn call(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    BufReader::new(s)
        .read_line(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    Ok(reply.trim_end().to_string())
}

/// One point run per bench at [`WARM_DISTANCE`]: builds and compiles
/// every trace the mix needs without touching a key of the mix.
fn warm_up_lines() -> Vec<String> {
    BENCHES
        .iter()
        .map(|b| {
            format!(
                "{{\"type\":\"point\",\"bench\":\"{b}\",\"scale\":\"test\",\
                 \"distance\":{WARM_DISTANCE}}}"
            )
        })
        .collect()
}

/// A running daemon and the thread serving it.
struct Daemon {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Bind and warm up: one point run per bench, so every trace the
    /// mix needs is built and compiled before the schedule starts.
    fn start(workers: usize) -> Result<Daemon, String> {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            cache_entries: CACHE_ENTRIES,
            ..ServerConfig::default()
        };
        let server = Server::bind(&cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        // Connect before the accept loop runs, so the first accept finds
        // the connection instead of landing on the loop's idle poll.
        let conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let thread = std::thread::spawn(move || server.run());
        let daemon = Daemon { addr, thread };
        // All warm-up requests go out in one write; the replies come back
        // in order.
        let lines: String = warm_up_lines().iter().map(|l| format!("{l}\n")).collect();
        (&conn)
            .write_all(lines.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reader = BufReader::new(conn);
        for b in BENCHES {
            let mut reply = String::new();
            reader
                .read_line(&mut reply)
                .map_err(|e| format!("read: {e}"))?;
            parse_reply(reply.trim_end()).map_err(|e| format!("warm-up {b}: {e}"))?;
        }
        Ok(daemon)
    }

    /// Drain the daemon and wait for it to exit.
    fn stop(self) -> Result<(), String> {
        call(self.addr, "{\"type\":\"shutdown\"}")?;
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }

    /// The daemon's `stats` payload.
    fn stats(&self) -> Result<Json, String> {
        Json::parse(&parse_reply(&call(self.addr, "{\"type\":\"stats\"}")?)?.result)
    }
}

/// Send `plan` open-loop over `conns` connections: request `i` goes on
/// connection `i % conns` at its intended time, whatever the replies
/// are doing. Returns one reply per request, in plan order.
fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    conns: usize,
    start: Instant,
) -> Result<Vec<Reply>, String> {
    let per_conn: Vec<Result<Vec<(usize, Reply)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<usize> = (c..plan.len()).step_by(conns).collect();
                s.spawn(move || connection(addr, plan, &mine, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection panicked".into()))
            })
            .collect()
    });
    let mut replies: Vec<Option<Reply>> = (0..plan.len()).map(|_| None).collect();
    for got in per_conn {
        for (i, reply) in got? {
            replies[i] = Some(reply);
        }
    }
    replies
        .into_iter()
        .map(|r| r.ok_or_else(|| "request without a reply".to_string()))
        .collect()
}

/// One connection of the generator: a sender thread writes the
/// requests `mine` at their intended times while this thread reads the
/// replies, which come back in order.
fn connection(
    addr: SocketAddr,
    plan: &[Planned],
    mine: &[usize],
    start: Instant,
) -> Result<Vec<(usize, Reply)>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
        .map_err(|e| format!("socket: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let due = |i: usize| start + Duration::from_micros(plan[i].at_us);
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<Vec<u64>, String> {
            let mut late = Vec::with_capacity(mine.len());
            for &i in mine {
                // Sleep to just before the due time, then spin: a timer
                // wakeup alone can land a millisecond late on a busy
                // virtual machine, and that lateness would be charged
                // to the daemon.
                if let Some(wait) = due(i).checked_duration_since(Instant::now() + SPIN) {
                    std::thread::sleep(wait);
                }
                while Instant::now() < due(i) {
                    std::hint::spin_loop();
                }
                late.push(Instant::now().duration_since(due(i)).as_micros() as u64);
                // One write per request, so the daemon reads whole lines.
                writer
                    .write_all(format!("{}\n", plan[i].line).as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
            }
            Ok(late)
        });
        let mut reader = BufReader::new(stream);
        let mut got = Vec::with_capacity(mine.len());
        let mut payloads = Payloads::default();
        let mut line = String::new();
        for &i in mine {
            line.clear();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            let now = Instant::now();
            got.push((
                i,
                Reply {
                    latency_us: now.duration_since(due(i)).as_micros() as u64,
                    late_us: 0,
                    done_us: now.duration_since(start).as_micros() as u64,
                    outcome: payloads.parse(line.trim_end()),
                },
            ));
        }
        let late = sender.join().map_err(|_| "sender panicked".to_string())??;
        for ((_, r), l) in got.iter_mut().zip(late) {
            r.late_us = l;
        }
        Ok(got)
    })
}

/// One exchange of the closed loop.
struct Exchange {
    /// Index into [`keyspace`]; `None` for a ping.
    key: Option<usize>,
    /// Reply read, microseconds after the phase start.
    done_us: u64,
    outcome: Result<Answer, String>,
}

/// Send the mix closed-loop for `seconds` over `conns` connections:
/// each sends its next request as soon as it has read the last reply.
/// Connection `c` draws its requests from its own seeded stream.
fn saturate(
    addr: SocketAddr,
    keys: &[String],
    mix: &Mix,
    seed: u64,
    conns: usize,
    seconds: f64,
) -> Result<Vec<Exchange>, String> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let per_conn: Vec<Result<Vec<Exchange>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || -> Result<Vec<Exchange>, String> {
                    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc105_ed10_0000 ^ c as u64);
                    let mut stream =
                        TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    stream
                        .set_nodelay(true)
                        .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
                        .map_err(|e| format!("socket: {e}"))?;
                    let mut reader =
                        BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
                    let mut got = Vec::new();
                    let mut payloads = Payloads::default();
                    let mut line = String::new();
                    while Instant::now() < end {
                        let key = mix.draw(&mut rng);
                        stream
                            .write_all(
                                format!("{}\n", request_line(keys, got.len(), key)).as_bytes(),
                            )
                            .map_err(|e| format!("send: {e}"))?;
                        line.clear();
                        reader
                            .read_line(&mut line)
                            .map_err(|e| format!("read: {e}"))?;
                        got.push(Exchange {
                            key,
                            done_us: start.elapsed().as_micros() as u64,
                            outcome: payloads.parse(line.trim_end()),
                        });
                    }
                    Ok(got)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for got in per_conn {
        all.extend(got?);
    }
    Ok(all)
}

/// Simulated demand references one miss of `cmd` costs the daemon: the
/// baseline plus every requested distance, main and helper thread.
/// Affinity profiles simulate nothing.
struct RefCounter {
    compiled: HashMap<(KernelKind, bool), Arc<CompiledTrace>>,
}

impl RefCounter {
    fn refs(&mut self, cmd: &Command) -> u64 {
        let (spec, distances) = match cmd {
            Command::Point { spec, distance } => (spec, vec![*distance]),
            Command::Sweep { spec, distances } => (spec, distances.clone()),
            _ => return 0,
        };
        let cfg = spec.cache.config;
        let ct = self
            .compiled
            .entry((spec.bench, spec.scale == Scale::Test))
            .or_insert_with(|| {
                let trace = span("workloads.build", || {
                    sp_workloads::WorkloadBuilder::new(spec.bench)
                        .tier(spec.scale.tier())
                        .trace()
                });
                // The daemon computes the SA/2 bound on every miss.
                span("profiler.bound", || recommend_distance(&trace, &cfg));
                span("trace.compile", || Arc::new(compile_trace(&trace, &cfg)))
            });
        let (sweep, _) = sweep_compiled_jobs_with(ct, cfg, spec.rp, &distances, spec.opts, 1)
            .expect("every request of the mix uses the default geometry");
        let refs = |r: &sp_core::RunResult| {
            r.stats.main.demand_accesses() + r.stats.helper.demand_accesses()
        };
        refs(&sweep.baseline) + sweep.points.iter().map(|p| refs(&p.run)).sum::<u64>()
    }
}

/// This process's own `SimEngine::execute` of some keys.
struct Executed {
    /// Each key's `result` bytes, or the engine's error.
    results: BTreeMap<usize, Result<String, String>>,
    /// Each key's execute time, ms.
    ms: BTreeMap<usize, f64>,
    /// Seconds all the executions took.
    total_s: f64,
}

/// Execute each `distinct` key once on one fresh engine, warmed up like
/// a daemon's so the times exclude building and compiling traces.
fn references(keys: &[String], distinct: &[usize]) -> Executed {
    let engine = SimEngine::new();
    for line in warm_up_lines() {
        let req = Request::parse(&line).expect("the warm-up requests are valid");
        engine
            .execute(&req.cmd)
            .expect("the warm-up requests simulate");
    }
    let mut out = Executed {
        results: BTreeMap::new(),
        ms: BTreeMap::new(),
        total_s: 0.0,
    };
    let t_all = Instant::now();
    for &k in distinct {
        let req = span("serve.parse", || {
            Request::parse(&format!("{{{}}}", keys[k]))
        })
        .expect("the mix holds only valid requests");
        let t0 = Instant::now();
        let result = span("serve.execute", || engine.execute(&req.cmd));
        out.ms.insert(k, t0.elapsed().as_secs_f64() * 1e3);
        out.results.insert(k, result);
    }
    out.total_s = t_all.elapsed().as_secs_f64();
    out
}

/// Run the serve workload for `seconds` and report its metrics.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();
    if let Err(e) = try_run(&mut rep, seed, seconds, trace) {
        rep.op(false, || e);
    }
    rep
}

/// What the load phases hand to the checks and metrics.
struct Load {
    /// The open loop's replies, in plan order.
    replies: Vec<Reply>,
    /// Process CPU seconds at each open-loop window boundary.
    cpu_marks: Vec<f64>,
    /// The closed loop's exchanges.
    closed: Vec<Exchange>,
    /// Deepest admission queue seen (traced runs poll for it).
    queue_depth_max: f64,
    /// The daemon's `stats` payload after both phases.
    stats: Json,
    /// `VmHWM` right after both phases, before the checks run.
    peak_rss_mb: f64,
}

/// Start of window `w` of a phase of `seconds` whose first `warm`
/// seconds are not measured, microseconds.
fn boundary(seconds: f64, warm: f64, w: usize) -> u64 {
    let window_us = (seconds - warm) * 1e6 / WINDOWS as f64;
    (warm * 1e6 + w as f64 * window_us) as u64
}

fn try_run(rep: &mut Report, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    if seconds < MIN_SECONDS {
        return Err(format!("serve needs --seconds of at least {MIN_SECONDS}"));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let keys = keyspace();
    let mix = Mix::new(&keys);
    let (open_s, closed_s) = (seconds * OPEN_SHARE, seconds * CLOSED_SHARE);
    let sim_s = seconds - open_s - closed_s;
    let plan = schedule(seed, open_s, &keys, &mix);
    rep.note("offered_rps", RATE);
    rep.note("open_loop_connections", cores as f64);
    rep.note("closed_loop_connections", 2.0 * cores as f64);
    rep.note("workers", cores as f64);
    rep.note("keyspace", keys.len() as f64);
    rep.note("open_loop_requests", plan.len() as f64);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        // CPU time, not wall time: the wall time of a set-up is mostly
        // thread hand-offs (client, handler, pool worker) whose wake-up
        // latency on a shared virtual machine varies several-fold.
        let cpu0 = cpu_seconds();
        daemon = Some(Daemon::start(cores)?);
        setup_s.push(cpu_seconds() - cpu0);
    }
    let daemon = daemon.expect("at least one set-up");
    let load = load(
        &daemon,
        &plan,
        &keys,
        &mix,
        seed,
        cores,
        (open_s, closed_s),
        trace,
    )?;
    daemon.stop()?;
    // The daemon turned span recording on for the process; the checks
    // below time the engine without it.
    sp_obs::span::stop_recording();

    let answered: Vec<(Option<usize>, &Result<Answer, String>)> = plan
        .iter()
        .zip(&load.replies)
        .map(|(p, r)| (p.key, &r.outcome))
        .chain(load.closed.iter().map(|x| (x.key, &x.outcome)))
        .collect();
    let pinned: BTreeSet<usize> = if plan.len() >= PINNED_REQUESTS {
        plan.iter()
            .take(PINNED_REQUESTS)
            .filter_map(|p| p.key)
            .collect()
    } else {
        BTreeSet::new()
    };
    let reference = check_replies(rep, seed, &keys, &answered, &pinned);
    let hits = answered
        .iter()
        .filter(|(_, o)| o.as_ref().is_ok_and(|a| a.cached))
        .count();
    rep.note("hits", hits as f64);
    rep.note("distinct_keys", reference.results.len() as f64);
    let late_ms: Vec<f64> = load
        .replies
        .iter()
        .map(|r| r.late_us as f64 / 1e3)
        .collect();
    rep.note("generator_late_ms_p50", quantile(&late_ms, 0.5));
    rep.note("generator_late_ms_p99", quantile(&late_ms, 0.99));
    if trace {
        let distinct: Vec<usize> = reference.results.keys().copied().collect();
        command_refs(&keys, &distinct, true);
        traced_layers(rep, &keys, &plan, &load, &reference);
        latency_rows(rep, open_s, &plan, &load, true);
        return Ok(());
    }
    rep.median_of("setup_s", "s", setup_s);
    let rates = sim_rates(rep, &keys, &reference, sim_s);
    rep.median_of("sim_mrefs_per_s", "Mrefs/s", rates);
    rep.single("peak_rss_mb", "MB", load.peak_rss_mb);
    let rps = closed_rps(closed_s, &load.closed);
    rep.note("offered_share_of_capacity", RATE / median(&rps));
    rep.median_of("achieved_rps", "1/s", rps);
    latency_rows(rep, open_s, &plan, &load, false);
    Ok(())
}

/// `sim_mrefs_per_s`'s samples, one per round of in-process
/// executions of every distinct key: the round's simulated demand refs
/// over its `SimEngine::execute` time. The check's round is the first;
/// more follow for `seconds` (at least [`SIM_ROUNDS`] in all), and each
/// must repeat the check's results. Queueing and thread hand-offs in
/// the daemon are outside this time.
fn sim_rates(rep: &mut Report, keys: &[String], reference: &Executed, seconds: f64) -> Vec<f64> {
    let distinct: Vec<usize> = reference.results.keys().copied().collect();
    let refs: u64 = command_refs(keys, &distinct, false).iter().sum();
    let rate = |ex: &Executed| refs as f64 / ex.ms.values().sum::<f64>() / 1e3;
    let mut rates = vec![rate(reference)];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || rates.len() < SIM_ROUNDS {
        let again = references(keys, &distinct);
        rep.op(again.results == reference.results, || {
            "a repeated SimEngine::execute round differs from the first".to_string()
        });
        rates.push(rate(&again));
    }
    rates
}

/// Drive both phases against `daemon`: the open-loop `plan` over `conns`
/// connections for `phases.0` seconds, then the closed loop over twice
/// as many for `phases.1`. A sampler thread reads process CPU time at
/// each open-loop window boundary; a traced run also polls `stats`
/// every 50 ms for the deepest admission queue.
#[allow(clippy::too_many_arguments)]
fn load(
    daemon: &Daemon,
    plan: &[Planned],
    keys: &[String],
    mix: &Mix,
    seed: u64,
    conns: usize,
    phases: (f64, f64),
    trace: bool,
) -> Result<Load, String> {
    let (open_s, closed_s) = phases;
    let start = Instant::now() + Duration::from_millis(20);
    let done = AtomicBool::new(false);
    let (replies, cpu_marks, closed, queue_depth_max) = std::thread::scope(|s| {
        let sampler = s.spawn(|| -> Vec<f64> {
            (0..=WINDOWS)
                .map(|w| {
                    let due = start + Duration::from_micros(boundary(open_s, WARM_S, w));
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    cpu_seconds()
                })
                .collect()
        });
        let poller = trace.then(|| {
            s.spawn(|| {
                let mut max = 0.0f64;
                while !done.load(Ordering::Relaxed) {
                    if let Ok(st) = daemon.stats() {
                        let depth = st.get("queue").and_then(|q| q.get("depth"));
                        max = max.max(depth.and_then(Json::as_f64).unwrap_or(0.0));
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                max
            })
        });
        let replies = drive(daemon.addr, plan, conns, start);
        // The open loop's last requests may finish early; the closed
        // loop starts when its schedule ends.
        let end = start + Duration::from_secs_f64(open_s);
        if let Some(wait) = end.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let closed = replies
            .is_ok()
            .then(|| saturate(daemon.addr, keys, mix, seed, 2 * conns, closed_s));
        done.store(true, Ordering::Relaxed);
        let max = poller.map_or(0.0, |p| p.join().unwrap_or(0.0));
        let marks = sampler.join().map_err(|_| "sampler panicked".to_string());
        (replies, marks, closed, max)
    });
    Ok(Load {
        replies: replies?,
        cpu_marks: cpu_marks?,
        closed: closed.expect("the open loop succeeded")?,
        queue_depth_max,
        stats: daemon.stats()?,
        peak_rss_mb: peak_rss_mb(),
    })
}

/// The output check: every reply ok, every key's replies identical and
/// equal to this process's own `SimEngine::execute` of the command, and
/// for the default seed the pinned digest of the `pinned` keys. The
/// reference executions cover every answered key and every pinned one,
/// so a pinned key that got no good reply still has its reference.
fn check_replies(
    rep: &mut Report,
    seed: u64,
    keys: &[String],
    answered: &[(Option<usize>, &Result<Answer, String>)],
    pinned: &BTreeSet<usize>,
) -> Executed {
    let mut by_key: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
    for &(key, outcome) in answered {
        match (outcome, key) {
            (Ok(a), Some(k)) => by_key.entry(k).or_default().push(&*a.result),
            (Ok(_), None) => rep.op(true, String::new),
            (Err(e), _) => rep.op(false, || {
                let what = key.map_or("ping", |k| keys[k].as_str());
                format!("request {what}: {e}")
            }),
        }
    }
    let distinct: Vec<usize> = by_key
        .keys()
        .chain(pinned)
        .copied()
        .collect::<BTreeSet<usize>>()
        .into_iter()
        .collect();
    let reference = references(keys, &distinct);
    let want = |k: &usize| reference.results[k].as_deref().unwrap_or("<engine error>");
    for (k, results) in &by_key {
        for got in results {
            rep.op(*got == want(k), || {
                format!("reply for {} differs from SimEngine::execute", keys[*k])
            });
        }
    }
    if !pinned.is_empty() {
        let surface: String = pinned
            .iter()
            .map(|k| format!("{}\n{}\n", keys[*k], want(k)))
            .collect();
        let d = digest::digest(&surface);
        rep.digests.insert("results".to_string(), d);
        if let Err(e) = digest::check_pinned("serve", "results", seed, d) {
            rep.op(false, || e);
        }
    }
    reference
}

/// Simulated demand refs each command of `distinct` costs when it
/// misses the cache (0 for an affinity profile).
fn command_refs(keys: &[String], distinct: &[usize], trace: bool) -> Vec<u64> {
    let mut counter = RefCounter {
        compiled: HashMap::new(),
    };
    spans::set_enabled(trace);
    let refs = distinct
        .iter()
        .map(|&k| {
            let cmd = Request::parse(&format!("{{{}}}", keys[k]))
                .expect("the mix holds only valid requests")
                .cmd;
            counter.refs(&cmd)
        })
        .collect();
    spans::set_enabled(false);
    refs
}

/// Completions per second in each measured window of the closed loop.
fn closed_rps(seconds: f64, closed: &[Exchange]) -> Vec<f64> {
    (0..WINDOWS)
        .map(|w| {
            let (lo, hi) = (
                boundary(seconds, RAMP_S, w),
                boundary(seconds, RAMP_S, w + 1),
            );
            let n = closed
                .iter()
                .filter(|x| (lo..hi).contains(&x.done_us) && x.outcome.is_ok())
                .count();
            n as f64 / ((hi - lo) as f64 / 1e6)
        })
        .collect()
}

/// The open loop's figures per measured window: latency p50 and p99
/// (notes untraced, per-layer metrics traced) and, untraced,
/// `cpu_ms_per_req`. Latencies belong to the window their request was
/// due in; completions and CPU time to the window they completed in.
fn latency_rows(rep: &mut Report, seconds: f64, plan: &[Planned], load: &Load, trace: bool) {
    let replies = &load.replies;
    let mut rows: Vec<[f64; 3]> = Vec::with_capacity(WINDOWS);
    let (mut samples, mut beyond_min) = (0, usize::MAX);
    for w in 0..WINDOWS {
        let (lo, hi) = (
            boundary(seconds, WARM_S, w),
            boundary(seconds, WARM_S, w + 1),
        );
        let lat: Vec<f64> = plan
            .iter()
            .zip(replies)
            .filter(|(p, r)| (lo..hi).contains(&p.at_us) && r.outcome.is_ok())
            .map(|(_, r)| r.latency_us as f64 / 1e3)
            .collect();
        let p99 = quantile(&lat, 0.99);
        samples += lat.len();
        beyond_min = beyond_min.min(lat.iter().filter(|&&m| m > p99).count());
        let completed = replies
            .iter()
            .filter(|r| (lo..hi).contains(&r.done_us) && r.outcome.is_ok())
            .count()
            .max(1) as f64;
        rows.push([
            quantile(&lat, 0.5),
            p99,
            (load.cpu_marks[w + 1] - load.cpu_marks[w]) * 1e3 / completed,
        ]);
    }
    rep.note("windows", WINDOWS as f64);
    rep.note("latency_samples", samples as f64);
    rep.note("window_samples_beyond_p99_min", beyond_min as f64);
    let column = |i: usize| rows.iter().map(|r| r[i]).collect::<Vec<f64>>();
    if trace {
        rep.median_of("loadgen.latency_p50_ms", "ms", column(0));
        rep.median_of("loadgen.latency_p99_ms", "ms", column(1));
        return;
    }
    rep.note("latency_p50_ms", median(&column(0)));
    rep.note("latency_p99_ms", median(&column(1)));
    rep.median_of("cpu_ms_per_req", "ms", column(2));
}

/// The per-layer metrics: the reference executions again, traced, for
/// the tracing overhead; the mix's lookups through a result cache sized
/// like the daemon's; the daemon's `stats`; the generator's lateness.
fn traced_layers(
    rep: &mut Report,
    keys: &[String],
    plan: &[Planned],
    load: &Load,
    reference: &Executed,
) {
    let distinct: Vec<usize> = reference.results.keys().copied().collect();
    spans::set_enabled(true);
    let traced = references(keys, &distinct);
    spans::set_enabled(false);
    // Untraced once more after the traced round: the overhead compares
    // the traced round with the mean of the untraced ones around it, so
    // a process warming up does not read as tracing cost.
    let untraced_s = (reference.total_s + references(keys, &distinct).total_s) / 2.0;
    spans::set_enabled(true);
    let cache = ResultCache::new(CACHE_ENTRIES, 8);
    for p in plan {
        let Some(k) = p.key else { continue };
        if span("serve.cache_get", || cache.get(&keys[k])).is_none() {
            if let Some(Ok(v)) = reference.results.get(&k) {
                cache.put(&keys[k], v.clone());
            }
        }
    }
    spans::set_enabled(false);
    rep.layers = spans::layers();
    let per_call_ms = |name: &str| {
        rep.layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6 / l.count.max(1) as f64)
    };
    let layer_ms = [
        ("workloads.build_ms", "ms", per_call_ms("workloads.build")),
        ("trace.compile_ms", "ms", per_call_ms("trace.compile")),
        ("profiler.bound_ms", "ms", per_call_ms("profiler.bound")),
        ("serve.parse_us", "us", per_call_ms("serve.parse") * 1e3),
        (
            "serve.cache_get_us",
            "us",
            per_call_ms("serve.cache_get") * 1e3,
        ),
    ];
    for (name, unit, v) in layer_ms {
        rep.single(name, unit, v);
    }
    let stat = |path: &str| {
        path.split('.')
            .try_fold(&load.stats, |v, part| v.get(part))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let late_ms: Vec<f64> = load
        .replies
        .iter()
        .map(|r| r.late_us as f64 / 1e3)
        .collect();
    let exec_ms: Vec<f64> = traced.ms.values().copied().collect();
    rep.metric(
        "serve.execute_ms_p50",
        "ms",
        median(&exec_ms),
        exec_ms.clone(),
    );
    rep.metric(
        "serve.execute_ms_p99",
        "ms",
        quantile(&exec_ms, 0.99),
        exec_ms,
    );
    rep.single("serve.hit_ratio", "ratio", stat("cache.hit_ratio"));
    rep.single("serve.busy", "count", stat("requests.busy"));
    rep.single("serve.timeouts", "count", stat("requests.timeouts"));
    rep.single("runner.queue_depth_max", "count", load.queue_depth_max);
    rep.single(
        "runner.utilization",
        "time_ratio",
        stat("workers.utilization"),
    );
    rep.single("loadgen.late_ms_p99", "ms", quantile(&late_ms, 0.99));
    rep.single(
        "obs.trace_overhead_ratio",
        "time_ratio",
        traced.total_s / untraced_s,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(result: &str) -> Result<Answer, String> {
        Ok(Answer {
            cached: false,
            result: result.into(),
        })
    }

    #[test]
    fn the_mix_outgrows_the_result_cache() {
        let keys = keyspace();
        assert_eq!(keys.len(), 363);
        assert!(keys.len() > CACHE_ENTRIES);
        assert_eq!(keys.iter().collect::<BTreeSet<_>>().len(), keys.len());
        for k in &keys {
            assert!(Request::parse(&format!("{{{k}}}")).is_ok(), "{k}");
        }
    }

    #[test]
    fn a_failed_reply_on_a_pinned_key_is_counted_not_a_panic() {
        let keys = keyspace();
        let busy: Result<Answer, String> = Err("busy".to_string());
        let wrong = ok("{\"not\":\"the engine's\"}");
        let pong = ok("{\"pong\":true}");
        // Key 0 is pinned and got only a busy reply; key 1 got a reply
        // that differs from the engine's.
        let answered = [(Some(0), &busy), (Some(1), &wrong), (None, &pong)];
        let pinned: BTreeSet<usize> = [0, 1].into();
        let mut rep = Report::default();
        let reference = check_replies(&mut rep, 7, &keys, &answered, &pinned);
        assert_eq!((rep.attempted, rep.failed), (3, 2));
        assert!(reference.results[&0].is_ok());
        assert!(rep.digests.contains_key("results"));
    }

    #[test]
    fn matching_replies_pass_the_check() {
        let keys = keyspace();
        let reference = references(&keys, &[2]);
        let good = ok(reference.results[&2].as_deref().unwrap());
        let answered = [(Some(2), &good), (Some(2), &good)];
        let mut rep = Report::default();
        check_replies(&mut rep, 7, &keys, &answered, &BTreeSet::new());
        assert_eq!((rep.attempted, rep.failed), (2, 0));
    }
}
