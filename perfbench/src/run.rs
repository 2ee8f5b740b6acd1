//! The workloads: set-up, the measured closed loop over the wire,
//! the output checks, and (with `--trace 1`) the `/metrics` deltas and
//! the in-process traced replay that give the per-layer split.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use classic_obs::ObsLevel;
use classic_server::{ServerConfig, ServerHandle};
use classic_store::DurableKb;

use crate::checks;
pub use crate::gen::Workload;
use crate::gen::{self, Op, OpKind, Rng, Software};
use crate::host;
use crate::replay::{self, Replay};
use crate::scrape::{Delta, Scrape};
use crate::trace;
use crate::wire::{self, LineClient};

/// The tenant the line-protocol workloads drive.
pub const TENANT: &str = "bench";
/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Rows per `bulk-ingest` load. A loaded tenant holds ~6 KiB per row,
/// so 25 000 rows keeps one load (and its reopen check) near 300 MiB.
const INGEST_ROWS: usize = 25_000;
/// Rows of the warm-up load `bulk-ingest` makes during set-up.
const WARM_ROWS: usize = 5_000;
/// Windows the measured phase is cut into.
const WINDOWS: usize = 20;
/// `bulk-ingest` stops after this many failed loads in a row, or once
/// its wall time reaches `INGEST_WALL_FACTOR` × `--seconds`, so a
/// program that fails every load still ends with a result.
const MAX_FAILED_LOADS: usize = 3;
const INGEST_WALL_FACTOR: f64 = 6.0;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies every input size (1.0 in a real run; tests shrink it).
    pub scale: f64,
    /// Scratch directory for tenant data; emptied by the caller.
    pub work: PathBuf,
    /// Where the traced run writes its Chrome trace.
    pub out: PathBuf,
}

impl Params {
    pub fn software(&self) -> Software {
        Software::new(((self.workload.functions() as f64 * self.scale) as usize).max(100))
    }

    pub fn ingest_rows(&self) -> usize {
        ((INGEST_ROWS as f64 * self.scale) as usize).max(100)
    }

    /// DDL + preload forms, in order.
    fn setup_forms(&self) -> Vec<String> {
        let sw = self.software();
        let mut forms = sw.ddl();
        forms.extend(sw.preload(self.seed));
        forms.extend(match self.workload {
            Workload::Mixed => gen::mixed_setup(self.workload.clients()),
            Workload::Cascade => gen::cascade_setup(self.seed, self.workload.clients()),
            Workload::Ingest => Vec::new(),
        });
        forms
    }
}

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub check_errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed ahead of the JSON result.
    pub text: String,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.check_errors.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn start_server(dir: &Path) -> Result<ServerHandle, String> {
    classic_server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.to_path_buf(),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

/// The `POST /ingest` target for a fresh tenant.
fn ingest_target(tenant: &str) -> String {
    format!("/ingest?tenant={tenant}&entity=PET&id=id&infer=1")
}

/// Individuals per tenant from `GET /stats`.
fn stats_individuals(addr: SocketAddr) -> Result<BTreeMap<String, usize>, String> {
    let body = wire::get(addr, "/stats").map_err(|e| format!("/stats: {e}"))?;
    let json = classic_obs::Json::parse(&body).map_err(|e| format!("/stats JSON: {e}"))?;
    let tenants = json
        .get("tenants")
        .and_then(|t| t.as_arr())
        .ok_or("/stats has no tenants array")?;
    Ok(tenants
        .iter()
        .filter_map(|t| {
            Some((
                t.get("name")?.as_str()?.to_owned(),
                t.get("individuals")?.as_num()? as usize,
            ))
        })
        .collect())
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    wire::get(addr, "/metrics")
        .map(|text| Scrape::parse(&text))
        .map_err(|e| format!("/metrics: {e}"))
}

/// One set-up: server start, schema DDL, bulk preload, first snapshot
/// cut, and the base queries once each (warm caches). Returns the
/// server and the seconds it took.
fn setup(p: &Params, forms: &[String], dir: &Path) -> Result<(ServerHandle, f64), String> {
    let t = Instant::now();
    let handle = start_server(dir)?;
    let addr = handle.local_addr();
    if p.workload == Workload::Ingest {
        let csv = gen::pets_csv(p.seed, gen::WARM_UP, WARM_ROWS);
        match wire::http(addr, "POST", &ingest_target("warm"), csv.as_bytes()) {
            Ok((200, _, _)) => {}
            Ok((status, body, _)) => return Err(format!("warm-up ingest: {status} {body:.300}")),
            Err(e) => return Err(format!("warm-up ingest: {e}")),
        }
        LineClient::new(addr, "warm")
            .call("(retrieve PET)")
            .map_err(|e| format!("warm-up read: {e}"))?;
    } else {
        let mut c = LineClient::new(addr, TENANT);
        for form in forms {
            let reply = c
                .call(form)
                .map_err(|e| format!("set-up form {form:.80}: {e}"))?;
            if reply.contains("\"rejected\":") && !reply.contains("\"rejected\":0") {
                return Err(format!("preload rejected rows: {reply:.300}"));
            }
        }
        c.call(&format!("(retrieve {})", gen::BUSY))
            .map_err(|e| format!("warm-up read: {e}"))?;
    }
    Ok((handle, t.elapsed().as_secs_f64()))
}

/// What one client (or the ingest loop) saw in the measured phase.
#[derive(Debug, Default)]
struct Log {
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
    /// One entry per closed-loop iteration.
    iter_ns: Vec<u64>,
    /// Iterations each client completed, by client index.
    iterations: Vec<usize>,
    reply_bytes: u64,
    /// Names in `retrieve` replies.
    answers: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    check_errors: Vec<String>,
    /// Extra lines for the human-readable summary.
    notes: Vec<String>,
    /// The last read of the line-protocol tenant, as `(form, reply)`;
    /// the reopened tenant must answer it the same way.
    final_read: Option<(String, String)>,
    /// `wire-cascade`: `(client, hub)` of every hub whose `(ALL member
    /// TRACKED)` stands, by the acknowledged replies.
    standing: BTreeSet<(usize, usize)>,
    /// `wire-mixed`: the acknowledged assertions not (yet) retracted.
    standing_writes: Vec<String>,
    /// `bulk-ingest`: rows committed and seconds per load.
    loads: Vec<(usize, f64)>,
    /// `bulk-ingest`: process CPU seconds and host steal seconds while
    /// each load was in flight.
    load_cpu_s: Vec<f64>,
    load_steal_s: Vec<f64>,
    /// `bulk-ingest`: peak RSS (MiB) once the first load has committed,
    /// before any reopen check adds its own memory.
    load_rss_mib: f64,
    /// When the measured phase began, the completion time (ns since then)
    /// of each successful request, and of each iteration (index-aligned
    /// with `iter_ns`).
    start: Option<Instant>,
    done: Vec<u64>,
    iter_done: Vec<u64>,
}

impl Log {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// One timed request; `None` (and a counted failure) on any error.
    fn call(&mut self, c: &mut LineClient, op: &Op) -> Option<String> {
        self.attempted += 1;
        let t = Instant::now();
        match c.call(&op.form) {
            Ok(reply) => {
                let ns = t.elapsed().as_nanos() as u64;
                match op.kind {
                    OpKind::Write => self.write_ns.push(ns),
                    OpKind::Read => self.read_ns.push(ns),
                }
                self.reply_bytes += reply.len() as u64 + 1;
                if let Some(start) = self.start {
                    self.done.push(start.elapsed().as_nanos() as u64);
                }
                Some(reply)
            }
            Err(e) => {
                self.fail(format!("{:.60}: {e}", op.form));
                None
            }
        }
    }

    fn merge(&mut self, o: Log) {
        self.write_ns.extend(o.write_ns);
        self.read_ns.extend(o.read_ns);
        self.iter_ns.extend(o.iter_ns);
        self.iterations.extend(o.iterations);
        self.reply_bytes += o.reply_bytes;
        self.answers += o.answers;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors);
        self.check_errors.extend(o.check_errors);
        self.notes.extend(o.notes);
        self.standing.extend(o.standing);
        self.standing_writes.extend(o.standing_writes);
        self.loads.extend(o.loads);
        self.load_cpu_s.extend(o.load_cpu_s);
        self.load_steal_s.extend(o.load_steal_s);
        self.done.extend(o.done);
        self.iter_done.extend(o.iter_done);
    }

    fn ops(&self) -> u64 {
        (self.write_ns.len() + self.read_ns.len()) as u64
    }
}

/// One closed-loop iteration of a line-protocol workload, over the wire.
/// `standing` is the client's hub with `(ALL member TRACKED)` on
/// `wire-cascade`.
fn wire_iteration(
    p: &Params,
    sw: &Software,
    rng: &mut Rng,
    client: usize,
    standing: &mut usize,
    c: &mut LineClient,
    log: &mut Log,
) {
    match p.workload {
        Workload::Mixed => {
            let (ops, name) = gen::mixed_iteration(sw, rng, client);
            let asserted = log.call(c, &ops[0]).is_some();
            if asserted {
                log.standing_writes.push(ops[0].form.clone());
            }
            if let Some(reply) = log.call(c, &ops[1]) {
                log.answers += checks::count_names(&reply);
                if asserted {
                    if let Err(e) = checks::read_your_write(&reply, &name) {
                        log.check_errors.push(e);
                    }
                }
            }
            if log.call(c, &ops[2]).is_some() && asserted {
                log.standing_writes.pop();
            }
        }
        Workload::Cascade => {
            let (ops, next) = gen::cascade_iteration(rng, client, *standing);
            if let Some(reply) = log.call(c, &ops[0]) {
                log.standing.insert((client, next));
                let members = gen::cascade_member_count(p.seed, client, next);
                if let Err(e) = checks::fired_rules(&reply, members) {
                    log.check_errors.push(format!("{}: {e}", ops[0].form));
                }
            }
            if log.call(c, &ops[1]).is_some() {
                log.standing.remove(&(client, *standing));
            }
            *standing = next;
        }
        Workload::Ingest => unreachable!("bulk-ingest has no line-protocol loop"),
    }
}

/// What the sampler read at one window boundary: process CPU seconds
/// and, in a traced run, the exposition.
struct Mark {
    cpu_s: f64,
    steal_s: f64,
    scrape: Option<Scrape>,
}

/// The measured closed loop: the workload's client threads, zero think
/// time, for `p.seconds`. Returns the merged log, the phase's wall
/// seconds, and what was read at each window boundary.
fn wire_loop(p: &Params, addr: SocketAddr) -> (Log, f64, Vec<Mark>) {
    let sw = p.software();
    let start = Instant::now();
    let width = Duration::from_secs_f64(p.seconds / WINDOWS as f64);
    let deadline = start + Duration::from_secs_f64(p.seconds);
    let (results, marks) = std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            (0..=WINDOWS as u32)
                .map(|w| {
                    let due = start + width * w;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    Mark {
                        cpu_s: host::cpu_seconds(),
                        steal_s: host::steal_seconds(),
                        scrape: if p.trace { scrape(addr).ok() } else { None },
                    }
                })
                .collect::<Vec<Mark>>()
        });
        let handles: Vec<_> = (0..p.workload.clients())
            .map(|client| {
                let sw = &sw;
                s.spawn(move || {
                    let mut rng = Rng::new(p.seed, gen::client_stream(client));
                    let mut c = LineClient::new(addr, TENANT);
                    let mut log = Log {
                        start: Some(start),
                        ..Log::default()
                    };
                    // Set-up left hub 0 standing (`wire-cascade`).
                    let mut standing = 0;
                    if p.workload == Workload::Cascade {
                        log.standing.insert((client, 0));
                    }
                    let mut i = 0;
                    while Instant::now() < deadline {
                        let t = Instant::now();
                        wire_iteration(p, sw, &mut rng, client, &mut standing, &mut c, &mut log);
                        log.iter_ns.push(t.elapsed().as_nanos() as u64);
                        log.iter_done.push(start.elapsed().as_nanos() as u64);
                        i += 1;
                    }
                    log.iterations.push(i);
                    (log, start.elapsed())
                })
            })
            .collect();
        let results: Vec<(Log, Duration)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, sampler.join().expect("cpu sampler panicked"))
    });
    let mut log = Log::default();
    let mut wall = Duration::ZERO;
    for (l, w) in results {
        wall = wall.max(w);
        log.merge(l);
    }
    (log, wall.as_secs_f64(), marks)
}

/// What a server left behind once shut down: individuals it reported,
/// bytes under its tenant directories, and each tenant's reopen time.
#[derive(Debug, Default)]
struct Closed {
    individuals: usize,
    disk_bytes: u64,
    reopen_s: Vec<f64>,
}

impl Closed {
    fn add(&mut self, o: Closed) {
        self.individuals += o.individuals;
        self.disk_bytes += o.disk_bytes;
        self.reopen_s.extend(o.reopen_s);
    }
}

/// Shut the server down, then check durability: every tenant directory
/// reopens with `DurableKb::open` holding exactly as many individuals as
/// `/stats` reported, and the line-protocol tenant answers its last read
/// as the server did.
fn close_server(handle: ServerHandle, data_dir: &Path, log: &mut Log) -> Result<Closed, String> {
    let stats = stats_individuals(handle.local_addr())?;
    handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let mut closed = Closed {
        individuals: stats.values().sum(),
        disk_bytes: host::dir_bytes(data_dir),
        reopen_s: Vec::new(),
    };
    for (tenant, held) in &stats {
        let t = Instant::now();
        let mut store = DurableKb::open(data_dir.join(tenant).join("kb.log"), |_| {})
            .map_err(|e| format!("reopening {tenant}: {e}"))?;
        closed.reopen_s.push(t.elapsed().as_secs_f64());
        let served = match &log.final_read {
            Some((form, reply)) if tenant == TENANT => Some((&form[..], &reply[..])),
            _ => None,
        };
        if let Err(e) = checks::reopened(store.kb_mut_for_queries(), *held, served) {
            log.check_errors.push(format!("{tenant}: {e}"));
        }
    }
    Ok(closed)
}

/// The measured `bulk-ingest` loop: one HTTP connection at a time, one
/// fresh tenant per load, loads in sequence until `p.seconds` of load
/// time are measured (or the loop gives up, see [`MAX_FAILED_LOADS`]).
/// The first load goes to the set-up server; each later one gets a
/// server of its own. Every server is shut down and reopen-checked after
/// its load (outside the measured time), so resident tenants do not pile
/// up in memory. `target` names the `POST` target for a tenant.
fn ingest_loop(
    p: &Params,
    first: ServerHandle,
    first_dir: &Path,
    target: fn(&str) -> String,
) -> Result<(Log, Delta, Closed), String> {
    let rows = p.ingest_rows();
    let mut log = Log::default();
    let mut delta = Delta::default();
    let mut closed = Closed::default();
    let mut server = Some((first, first_dir.to_path_buf()));
    let give_up = Instant::now() + Duration::from_secs_f64(p.seconds * INGEST_WALL_FACTOR);
    let mut failed_in_row = 0;
    let mut k = 0;
    while k == 0
        || (log.loads.iter().map(|l| l.1).sum::<f64>() < p.seconds
            && failed_in_row < MAX_FAILED_LOADS
            && Instant::now() < give_up)
    {
        let csv = gen::pets_csv(p.seed, gen::load_stream(k), rows);
        let tenant = format!("load-{k}");
        let (handle, dir) = match server.take() {
            Some(first) => first,
            None => {
                let dir = p.work.join(&tenant);
                (start_server(&dir)?, dir)
            }
        };
        let addr = handle.local_addr();
        let before = scrape(addr)?;
        log.attempted += 1;
        let (cpu0, steal0) = (host::cpu_seconds(), host::steal_seconds());
        let sent = wire::http(addr, "POST", &target(&tenant), csv.as_bytes());
        failed_in_row += 1;
        let cpu = host::cpu_seconds() - cpu0;
        let steal = host::steal_seconds() - steal0;
        match sent {
            Ok((200, body, dt)) => {
                failed_in_row = 0;
                log.load_cpu_s.push(cpu);
                log.load_steal_s.push(steal);
                log.write_ns.push(dt.as_nanos() as u64);
                log.reply_bytes += body.len() as u64;
                log.loads.push((rows, dt.as_secs_f64()));
                if k == 0 {
                    log.load_rss_mib = host::peak_rss_mib();
                }
                let checked = stats_individuals(addr).and_then(|stats| {
                    let held = stats.get(&tenant).copied().unwrap_or(0);
                    checks::ingest_reply(&body, rows, held)
                });
                if let Err(e) = checked {
                    log.check_errors.push(e);
                }
            }
            Ok((status, body, _)) => log.fail(format!("ingest {tenant}: {status} {body:.200}")),
            Err(e) => log.fail(format!("ingest {tenant}: {e}")),
        }
        delta.add(&Delta::between(&before, &scrape(addr)?)?);
        closed.add(close_server(handle, &dir, &mut log)?);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        k += 1;
    }
    log.iterations.push(k);
    Ok((log, delta, closed))
}

/// Indices of the quieter half of a phase's windows (or loads): those
/// during which the hypervisor took the least CPU time from this guest
/// (`steal`), ties in order. A noisy neighbour on a shared host slows
/// every process on it for a while, and that stretch, not the program,
/// then sets a figure taken over all windows.
fn quieter_half(steal: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    idx.truncate(steal.len().div_ceil(2));
    idx
}

/// The measured phase cut into `WINDOWS` equal windows. Each
/// end-to-end figure of a line-protocol workload is the median over the
/// quieter half of the windows, so host noise that spoils some windows
/// moves it less than it moves a whole-phase figure.
struct Windows {
    seconds: f64,
    ops: Vec<u64>,
    iter_ns: Vec<Vec<u64>>,
    cpu_s: Vec<f64>,
    quiet: Vec<usize>,
}

impl Windows {
    /// `cpu_marks` and `steal_marks` are the process CPU seconds and host
    /// steal seconds read at each window boundary.
    fn new(log: &Log, seconds: f64, cpu_marks: &[f64], steal_marks: &[f64]) -> Windows {
        let width = seconds * 1e9 / WINDOWS as f64;
        let window = |at: u64| Some((at as f64 / width) as usize).filter(|&w| w < WINDOWS);
        let mut ops = vec![0; WINDOWS];
        for w in log.done.iter().filter_map(|&at| window(at)) {
            ops[w] += 1;
        }
        let mut iter_ns = vec![Vec::new(); WINDOWS];
        for (&at, &ns) in log.iter_done.iter().zip(&log.iter_ns) {
            if let Some(w) = window(at) {
                iter_ns[w].push(ns);
            }
        }
        let diffs = |marks: &[f64]| marks.windows(2).map(|m| m[1] - m[0]).collect::<Vec<f64>>();
        Windows {
            seconds,
            ops,
            iter_ns,
            cpu_s: diffs(cpu_marks),
            quiet: quieter_half(&diffs(steal_marks)),
        }
    }

    /// Median of `f` over the quiet windows it is defined on.
    fn median_over(&self, f: impl Fn(usize) -> Option<f64>) -> f64 {
        median(self.quiet.iter().filter_map(|&w| f(w)).collect())
    }

    fn ops_per_s(&self) -> f64 {
        let width = self.seconds / WINDOWS as f64;
        self.median_over(|w| Some(self.ops[w] as f64 / width))
    }

    fn iter_p50_ms(&self) -> f64 {
        self.median_over(|w| {
            let v = &self.iter_ns[w];
            (!v.is_empty()).then(|| median(v.iter().map(|&ns| ns as f64 / 1e6).collect()))
        })
    }

    fn cpu_ms_per_op(&self) -> f64 {
        self.median_over(|w| (self.ops[w] > 0).then(|| self.cpu_s[w] * 1e3 / self.ops[w] as f64))
    }

    /// One line of per-window figures, to show the phase is steady.
    fn summary(&self, steal_marks: &[f64]) -> String {
        let steal: Vec<String> = steal_marks
            .windows(2)
            .map(|m| format!("{:.2}", m[1] - m[0]))
            .collect();
        let mut quiet = self.quiet.clone();
        quiet.sort_unstable();
        format!(
            "windows: ops={:?} steal_s=[{}] quiet={quiet:?}",
            self.ops,
            steal.join(", ")
        )
    }
}

/// Nearest-rank percentile of nanosecond samples, in milliseconds.
fn pct_ms(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e6
}

fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<u64>() as f64 / xs.len() as f64
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Run one workload end to end.
pub fn run(p: &Params) -> Result<Report, String> {
    let forms = if p.workload == Workload::Ingest {
        Vec::new()
    } else {
        p.setup_forms()
    };
    // One set-up before the measured phase; the other repetitions that
    // `setup_s` takes its median over run after it, so the memory they
    // churn does not count in the phase's peak RSS.
    let data_dir = p.work.join("data");
    let (handle, first_setup) = setup(p, &forms, &data_dir)?;
    let mut setup_times = vec![first_setup];
    let (setup_disk, setup_inds) = if p.workload == Workload::Ingest {
        (0, 0)
    } else {
        let inds: usize = stats_individuals(handle.local_addr())?.values().sum();
        (host::dir_bytes(&data_dir), inds)
    };

    if p.trace {
        classic_obs::set_level(ObsLevel::Full);
    }
    let steal0 = host::steal_seconds();
    // `ops_per_s`, `iter_p50_ms` and `cpu_ms_per_op`: medians over the
    // quieter half of the loads for ingest, of the windows of the phase
    // for the line protocol.
    let (mut log, wall, delta, closed, peak_rss, medians) = if p.workload == Workload::Ingest {
        let start = Instant::now();
        let (log, delta, closed) = ingest_loop(p, handle, &data_dir, ingest_target)?;
        let wall = start.elapsed().as_secs_f64();
        let quiet = quieter_half(&log.load_steal_s);
        let per_load = |f: &dyn Fn(usize, f64, f64) -> f64| {
            median(
                quiet
                    .iter()
                    .map(|&k| f(log.loads[k].0, log.loads[k].1, log.load_cpu_s[k]))
                    .collect(),
            )
        };
        let medians = [
            per_load(&|rows, secs, _| rows as f64 / secs),
            per_load(&|_, secs, _| secs * 1e3),
            per_load(&|rows, _, cpu| cpu * 1e3 / rows as f64),
        ];
        let rss = log.load_rss_mib;
        (log, wall, delta, closed, rss, medians)
    } else {
        let addr = handle.local_addr();
        let before = scrape(addr)?;
        let (mut log, wall, marks) = wire_loop(p, addr);
        let peak_rss = host::peak_rss_mib();
        let delta = Delta::between(&before, &scrape(addr)?)?;
        // The last read: the busy query (`wire-mixed`) or every audited
        // individual (`wire-cascade`), checked now and after reopening.
        let form = match p.workload {
            Workload::Mixed => format!("(retrieve {})", gen::BUSY),
            _ => "(retrieve AUDITED)".to_owned(),
        };
        match LineClient::new(addr, TENANT).call(&form) {
            Ok(reply) => {
                let check = if p.workload == Workload::Mixed {
                    // The naive scan's answer on a replica given the same
                    // set-up and the assertions that stand.
                    let standing = &log.standing_writes[..];
                    checks::replica(&[&forms[..], standing].concat()).and_then(|mut kb| {
                        let want = checks::oracle_answers(&mut kb, &form)?;
                        checks::same_answers(&form, &reply, &want)
                    })
                } else {
                    let tracked = log
                        .standing
                        .iter()
                        .map(|&(client, k)| gen::cascade_member_count(p.seed, client, k))
                        .sum();
                    checks::audited_count(&reply, tracked)
                };
                if let Err(e) = check {
                    log.check_errors.push(e);
                }
                log.final_read = Some((form, reply));
            }
            Err(e) => log.check_errors.push(format!("{form}: {e}")),
        }
        let closed = close_server(handle, &data_dir, &mut log)?;
        let cpu_marks: Vec<f64> = marks.iter().map(|m| m.cpu_s).collect();
        let steal_marks: Vec<f64> = marks.iter().map(|m| m.steal_s).collect();
        let w = Windows::new(&log, p.seconds, &cpu_marks, &steal_marks);
        log.notes.push(w.summary(&steal_marks));
        if p.trace {
            // The rule fan-out per op, window by window: it should hold
            // over the whole phase, not only at its start.
            let mut fired = Vec::with_capacity(WINDOWS);
            for (pair, &ops) in marks.windows(2).zip(&w.ops) {
                if let (Some(a), Some(b)) = (&pair[0].scrape, &pair[1].scrape) {
                    let rules = Delta::between(a, b)?.counter("classic_rules_fired_total");
                    fired.push(format!("{:.1}", ratio(rules, ops as f64)));
                }
            }
            log.notes.push(format!(
                "kb.rules_fired_per_op by window: [{}]",
                fired.join(", ")
            ));
        }
        (
            log,
            wall,
            delta,
            closed,
            peak_rss,
            [w.ops_per_s(), w.iter_p50_ms(), w.cpu_ms_per_op()],
        )
    };
    classic_obs::set_level(ObsLevel::Counters);
    let steal = host::steal_seconds() - steal0;
    if !p.trace {
        for r in 1..SETUP_REPS {
            let dir = p.work.join(format!("setup-{r}"));
            let (handle, secs) = setup(p, &forms, &dir)?;
            setup_times.push(secs);
            handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {}: {e}", dir.display()))?;
        }
    }

    let ops = match p.workload {
        Workload::Ingest => log.loads.iter().map(|l| l.0 as u64).sum(),
        _ => log.ops(),
    };
    log.write_ns.sort_unstable();
    log.read_ns.sort_unstable();
    let [ops_per_s, iter_p50_ms, cpu_ms_per_op] = medians;
    let e2e = vec![
        metric("setup_s", median(setup_times.clone()), "s"),
        metric("ops_per_s", ops_per_s, "ops/s"),
        metric("iter_p50_ms", iter_p50_ms, "ms"),
        metric("cpu_ms_per_op", cpu_ms_per_op, "ms"),
        metric("peak_rss_mib", peak_rss, "MiB"),
        metric(
            "disk_bytes_per_ind",
            match p.workload {
                Workload::Ingest => ratio(closed.disk_bytes as f64, closed.individuals as f64),
                // The phase adds no individuals: the set-up's bytes.
                // `store.append_bytes_per_op` has what its writes log.
                Workload::Mixed | Workload::Cascade => ratio(setup_disk as f64, setup_inds as f64),
            },
            "B",
        ),
    ];
    let ingest_secs: f64 = log.loads.iter().map(|l| l.1).sum();
    let client = vec![
        metric("write_p50_ms", pct_ms(&log.write_ns, 0.5), "ms"),
        metric("write_p99_ms", pct_ms(&log.write_ns, 0.99), "ms"),
        metric("write_samples", log.write_ns.len() as f64, "count"),
        metric("read_p50_ms", pct_ms(&log.read_ns, 0.5), "ms"),
        metric("read_p99_ms", pct_ms(&log.read_ns, 0.99), "ms"),
        metric("read_samples", log.read_ns.len() as f64, "count"),
        metric(
            "ingest_rows_per_s",
            if p.workload == Workload::Ingest {
                ratio(ops as f64, ingest_secs)
            } else {
                0.0
            },
            "rows/s",
        ),
        metric(
            "failed_frac",
            ratio(log.failed as f64, log.attempted as f64),
            "ratio",
        ),
    ];

    let mut text =
        format!(
        "{} seed={} seconds={} clients={} functions={} ingest_rows={} iterations={:?} ops={ops} \
         phase_wall_s={wall:.2} host_steal_s={steal:.2} setups={setup_times:?}\n",
        p.workload.name(),
        p.seed,
        p.seconds,
        p.workload.clients(),
        if p.workload == Workload::Ingest { 0 } else { p.software().functions },
        if p.workload == Workload::Ingest { p.ingest_rows() } else { 0 },
        log.iterations,
    );
    for m in e2e.iter().chain(&client) {
        text.push_str(&format!("  {:<28} {:>14.4} {}\n", m.name, m.value, m.unit));
    }
    for e in &log.errors {
        text.push_str(&format!("  failed request: {e}\n"));
    }
    for note in &log.notes {
        text.push_str(&format!("{note}\n"));
    }
    let mut report = Report {
        attempted: log.attempted,
        failed: log.failed,
        check_errors: std::mem::take(&mut log.check_errors),
        metrics: e2e,
        text,
    };
    if !p.trace {
        return Ok(report);
    }

    let replay = match p.workload {
        Workload::Ingest => replay::ingest(p, log.loads.len())?,
        _ => replay::wire(p, &forms, &log.iterations)?,
    };
    let layers = per_layer(p, &log, ops, &delta, &closed, &replay);
    let times = trace::layer_times(&replay.threads);
    report.text.push_str(&format!(
        "traced replay: {} traced ops, {} untraced ops\n{}",
        replay.traced_op_ns.len(),
        replay.untraced_op_ns.len(),
        trace::self_time_table(&times)
    ));
    let value = |name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let (front, request) = (value("server.front_ms"), value("server.request_ms"));
    report.text.push_str(&format!(
        "op time split: client round trip {:.3} ms = server.front_ms {front:.3} + server.request_ms {request:.3}\n",
        front + request
    ));
    for m in &layers {
        report
            .text
            .push_str(&format!("  {:<28} {:>14.4} {}\n", m.name, m.value, m.unit));
    }
    std::fs::create_dir_all(&p.out).map_err(|e| format!("creating {}: {e}", p.out.display()))?;
    let trace_path = p
        .out
        .join(format!("trace-{}-{}.json", p.workload.name(), p.seed));
    std::fs::write(&trace_path, trace::chrome_json(&replay.threads))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    report
        .text
        .push_str(&format!("chrome trace: {}\n", trace_path.display()));
    report.metrics = client;
    report.metrics.extend(layers);
    Ok(report)
}

/// The layer metrics: `/metrics` deltas over the measured phase (M),
/// spans of the in-process replay (T), and the two combined (D).
fn per_layer(
    p: &Params,
    log: &Log,
    ops: u64,
    delta: &Delta,
    closed: &Closed,
    replay: &Replay,
) -> Vec<Metric> {
    let times = trace::layer_times(&replay.threads);
    let span_ms = |n: &str| times.get(n).map_or(0.0, |t| t.mean_ms());
    let per_op = |v: f64| ratio(v, ops as f64);
    let ms = |name: &str| delta.mean(name) / 1e6;
    let count = |name: &str| delta.counter(name);

    let request_ms = ms("classic_server_request_ns");
    let round_trip_ms = mean(&[&log.write_ns[..], &log.read_ns[..]].concat()) / 1e6;
    let retrieve_ms = ms("classic_retrieve_ns");
    let assert_ms = ms("classic_assert_ns");
    let append_ms = ms("classic_store_append_ns");
    // KB and store time per write op, whatever the op: half the writes
    // of both line workloads are retracts, which have no assert.
    let sum_ms = |name: &str| delta.mean(name) * delta.count(name) / 1e6;
    let write_work_ms = ratio(
        sum_ms("classic_assert_ns")
            + sum_ms("classic_retract_ns")
            + sum_ms("classic_store_append_ns"),
        log.write_ns.len() as f64,
    );
    let tested = count("classic_retrieve_tested_total");
    let queries = count("classic_retrieve_total");
    let memo_hits = count("classic_subsume_memo_hits_total");
    let memo_misses = count("classic_subsume_memo_misses_total");
    let intern_hits = count("classic_intern_hits_total");
    // A gauge: every snapshot clone sets it from its own interner, so
    // only its growth counts.
    let interned = count("classic_nf_interned").max(0.0);
    let plan_s = span_ms("ingest.plan") / 1e3;
    let tenant_ingest_s = span_ms("tenant.ingest") / 1e3;
    let eval_ms = span_ms("snapshot.eval");
    let execute_ms = span_ms("tenant.execute");
    // A derived remainder only where its first term was measured.
    let minus = |total: f64, parts: f64| if total > 0.0 { total - parts } else { 0.0 };

    vec![
        metric("server.request_ms", request_ms, "ms"),
        metric("server.front_ms", round_trip_ms - request_ms, "ms"),
        metric(
            "server.reply_bytes_per_op",
            per_op(log.reply_bytes as f64),
            "B",
        ),
        metric("tenant.execute_ms", execute_ms, "ms"),
        metric(
            "tenant.lock_wait_ms",
            minus(execute_ms, write_work_ms),
            "ms",
        ),
        metric("tenant.snapshot_ms", span_ms("tenant.snapshot"), "ms"),
        metric("tenant.snapshot_cut_ms", mean(&replay.cut_ns) / 1e6, "ms"),
        metric(
            "tenant.snapshot_hit_ratio",
            ratio(replay.snapshot_hits as f64, replay.snapshot_calls as f64),
            "ratio",
        ),
        metric("snapshot.eval_ms", eval_ms, "ms"),
        metric("snapshot.wait_ms", minus(eval_ms, retrieve_ms), "ms"),
        metric("snapshot.drop_ms", span_ms("snapshot.drop"), "ms"),
        metric("lang.parse_us", span_ms("lang.parse") * 1e3, "us"),
        metric("lang.render_us", span_ms("lang.render") * 1e3, "us"),
        metric("query.retrieve_ms", retrieve_ms, "ms"),
        metric("query.tested_per_query", ratio(tested, queries), "count"),
        metric(
            "query.free_per_query",
            ratio(count("classic_retrieve_free_total"), queries),
            "count",
        ),
        metric(
            "query.candidates_per_query",
            delta.mean("classic_retrieve_candidates"),
            "count",
        ),
        metric(
            "query.answers_per_tested",
            ratio(log.answers as f64, tested),
            "ratio",
        ),
        metric(
            "core.subsume_tests_per_op",
            per_op(count("classic_subsume_tests_total")),
            "count",
        ),
        metric(
            "core.subsume_memo_hit_ratio",
            ratio(memo_hits, memo_hits + memo_misses),
            "ratio",
        ),
        metric(
            "core.intern_hit_ratio",
            ratio(intern_hits, intern_hits + interned),
            "ratio",
        ),
        metric("core.classify_ms", ms("classic_classify_ns"), "ms"),
        metric("kb.assert_ms", assert_ms, "ms"),
        metric("kb.retract_ms", ms("classic_retract_ns"), "ms"),
        metric("kb.propagate_ms", ms("classic_propagate_fixpoint_ns"), "ms"),
        metric(
            "kb.propagation_steps_per_op",
            per_op(count("classic_propagation_steps_total")),
            "count",
        ),
        metric(
            "kb.realizations_per_op",
            per_op(count("classic_realizations_total")),
            "count",
        ),
        metric(
            "kb.rules_fired_per_op",
            per_op(count("classic_rules_fired_total")),
            "count",
        ),
        metric("kb.bulk_assert_s", ms("classic_bulk_assert_ns") / 1e3, "s"),
        metric(
            "kb.bulk_fallbacks",
            count("classic_bulk_sequential_fallbacks_total"),
            "count",
        ),
        metric("store.append_ms", append_ms, "ms"),
        metric(
            "store.appends_per_op",
            per_op(count("classic_store_appends_total")),
            "count",
        ),
        metric(
            "store.append_bytes_per_op",
            per_op(count("classic_store_append_bytes_total")),
            "B",
        ),
        metric(
            "store.bulk_load_s",
            ms("classic_store_bulk_load_ns") / 1e3,
            "s",
        ),
        metric(
            "store.compact_render_ms",
            ms("classic_store_compact_render_ns"),
            "ms",
        ),
        metric(
            "store.compact_publish_ms",
            ms("classic_store_compact_publish_ns"),
            "ms",
        ),
        metric(
            "store.segments_written",
            count("classic_store_segments_written_total"),
            "count",
        ),
        metric("store.reopen_s", median(closed.reopen_s.clone()), "s"),
        metric("ingest.plan_s", plan_s, "s"),
        metric("ingest.tenant_ingest_s", tenant_ingest_s, "s"),
        metric(
            "ingest.front_s",
            if p.workload == Workload::Ingest {
                round_trip_ms / 1e3 - plan_s - tenant_ingest_s
            } else {
                0.0
            },
            "s",
        ),
        metric(
            "obs.trace_overhead_ratio",
            ratio(mean(&replay.traced_op_ns), mean(&replay.untraced_op_ns)),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_request_is_counted_not_fatal() {
        // A port nobody listens on: bind one, then let it go.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("a free port");
        let mut log = Log::default();
        let op = gen::iteration_ops(
            Workload::Mixed,
            &Software::new(100),
            &mut Rng::new(1, 1),
            0,
            &mut 0,
        )
        .remove(0);
        let mut c = LineClient::new(addr, TENANT);
        assert!(log.call(&mut c, &op).is_none());
        assert!(log.call(&mut c, &op).is_none());
        assert_eq!((log.attempted, log.failed, log.ops()), (2, 2, 0));
        assert_eq!(log.errors.len(), 2);
    }

    #[test]
    fn failing_loads_are_counted_and_the_ingest_loop_ends() {
        let work = std::env::temp_dir().join(format!("perfbench-failing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        let p = Params {
            workload: Workload::Ingest,
            seed: 1,
            seconds: 30.0,
            trace: false,
            scale: 0.01,
            work: work.clone(),
            out: work.join("out"),
        };
        let first_dir = work.join("data");
        let (first, _) = setup(&p, &[], &first_dir).expect("set-up");
        // The id column does not exist, so every load is refused.
        let (log, _, _) = ingest_loop(&p, first, &first_dir, |tenant| {
            format!("/ingest?tenant={tenant}&entity=PET&id=no-such-column")
        })
        .expect("the loop ends with a result");
        assert_eq!(log.failed, MAX_FAILED_LOADS as u64, "{:?}", log.errors);
        assert_eq!(log.attempted, log.failed);
        assert!(log.loads.is_empty());
        let _ = std::fs::remove_dir_all(&work);
    }

    #[test]
    fn window_figures_are_medians_over_the_quieter_windows() {
        // Half-second windows: the first 12 slowed by a noisy host (50
        // ops of 20 ms, steal), the other 8 at full speed (100 ops of
        // 10 ms). The quieter half is the 8 fast windows and 2 slow ones,
        // so the medians are the full-speed figures.
        assert_eq!(WINDOWS, 20);
        let mut log = Log::default();
        for w in 0..WINDOWS as u64 {
            let (n, ns) = if w < 12 {
                (50, 20_000_000)
            } else {
                (100, 10_000_000)
            };
            for k in 0..n {
                let at = w * 500_000_000 + k * 1_000_000;
                log.done.push(at);
                log.iter_done.push(at);
                log.iter_ns.push(ns);
            }
        }
        let cpu: Vec<f64> = (0..=WINDOWS).map(|w| w as f64 * 0.5).collect();
        let steal: Vec<f64> = (0..=WINDOWS).map(|w| w.min(12) as f64 * 0.1).collect();
        let windows = Windows::new(&log, 10.0, &cpu, &steal);
        assert_eq!(windows.ops_per_s(), 200.0);
        assert_eq!(windows.iter_p50_ms(), 10.0);
        assert_eq!(windows.cpu_ms_per_op(), 5.0);
        assert_eq!(quieter_half(&[0.3, 0.0, 0.1, 0.0, 0.2]), vec![1, 3, 2]);
        assert_eq!(pct_ms(&[1_000_000, 2_000_000, 3_000_000], 0.5), 2.0);
    }
}
