//! The traced run's in-process replay: the op streams the wire phase
//! sent, run again through the crates' public functions on a fresh
//! tenant, with the benchmark's own spans around each call.
//!
//! Blocks of [`BLOCK`] iterations alternate between traced (spans on,
//! observability `full`) and untraced (spans off, the default level), so
//! both halves see the same stream at the same KB size; their op-time
//! ratio is the tracing overhead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use classic_obs::ObsLevel;
use classic_server::Tenant;

use crate::gen::{self, Op, OpKind, Rng};
use crate::run::Params;
use crate::trace::Spans;

/// Iterations per traced or untraced block.
const BLOCK: usize = 4;

/// What the replay measured.
#[derive(Default)]
pub struct Replay {
    pub threads: Vec<Spans>,
    pub traced_op_ns: Vec<u64>,
    pub untraced_op_ns: Vec<u64>,
    pub snapshot_calls: u64,
    pub snapshot_hits: u64,
    /// Durations of the `Tenant::snapshot` calls that cut a new snapshot.
    pub cut_ns: Vec<u64>,
}

/// Snapshot-cache accounting shared by the replay threads: a call is a
/// hit when it returns the same version as the call before it.
#[derive(Default)]
struct SnapshotLog {
    last: Option<u64>,
    calls: u64,
    hits: u64,
    cut_ns: Vec<u64>,
}

fn level(traced: bool) -> ObsLevel {
    if traced {
        ObsLevel::Full
    } else {
        ObsLevel::Counters
    }
}

/// Run one op as the server does — parse, then `Tenant::execute` for a
/// write or `Tenant::snapshot` + `Snapshot::eval` for a read, then render
/// the reply — with a span around each call.
fn replay_op(
    tenant: &Tenant,
    op: &Op,
    id: u64,
    spans: &mut Spans,
    snaps: &Mutex<SnapshotLog>,
) -> Result<(), String> {
    let err = |e: classic_core::ClassicError| format!("{:.60}: {e}", op.form);
    let cmd = spans
        .span("lang.parse", id, |_| classic_lang::parse_one(&op.form))
        .map_err(err)?;
    let outcome = if op.kind == OpKind::Write {
        spans.span("tenant.execute", id, |_| tenant.execute(&cmd))
    } else {
        let t = Instant::now();
        let snap = spans
            .span("tenant.snapshot", id, |_| tenant.snapshot())
            .map_err(err)?;
        let dur = t.elapsed().as_nanos() as u64;
        if spans.enabled {
            let mut s = snaps.lock().expect("snapshot log lock");
            s.calls += 1;
            if s.last == Some(snap.version) {
                s.hits += 1;
            } else {
                s.cut_ns.push(dur);
            }
            s.last = Some(snap.version);
        }
        let outcome = spans.span("snapshot.eval", id, |_| snap.eval(&cmd));
        // The last holder of a superseded snapshot frees a whole KB clone.
        spans.span("snapshot.drop", id, |_| drop(snap));
        outcome
    }
    .map_err(err)?;
    std::hint::black_box(spans.span("lang.render", id, |_| outcome.render_json()));
    Ok(())
}

/// Replay a line-protocol workload on a fresh tenant built from the same
/// forms: the same client count, each client the stream it sent over the
/// wire, for as many iterations as the busiest client completed there
/// (at most `p.seconds`).
pub fn wire(p: &Params, forms: &[String], iterations: &[usize]) -> Result<Replay, String> {
    let tenant = Tenant::open("replay", &p.work.join("replay"))
        .map_err(|e| format!("replay tenant: {e}"))?;
    let warm_up = format!("(retrieve {})", gen::BUSY);
    for form in forms.iter().cloned().chain([warm_up]) {
        let cmd = classic_lang::parse_one(&form).map_err(|e| e.to_string())?;
        tenant
            .execute(&cmd)
            .map_err(|e| format!("replay set-up: {e}"))?;
    }
    let sw = p.software();
    let rounds = iterations
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .div_ceil(2 * BLOCK)
        .max(1);
    let barrier = Barrier::new(p.workload.clients());
    let stop = AtomicBool::new(false);
    // The warm-up above cut the snapshot the first replayed read finds.
    let snaps = Mutex::new(SnapshotLog {
        last: Some(tenant.version()),
        ..SnapshotLog::default()
    });
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(p.seconds);
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = (0..p.workload.clients())
            .map(|client| {
                let (sw, tenant, barrier, stop, snaps) = (&sw, &tenant, &barrier, &stop, &snaps);
                s.spawn(move || -> Result<(Spans, Vec<u64>, Vec<u64>), String> {
                    let mut rng = Rng::new(p.seed, gen::client_stream(client));
                    let mut spans = Spans::new(epoch, client);
                    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
                    let mut n = 0u64;
                    let mut standing = 0;
                    let mut failure = None;
                    'rounds: for _ in 0..rounds {
                        for on in [true, false] {
                            barrier.wait();
                            if client == 0 {
                                classic_obs::set_level(level(on));
                                if on && Instant::now() >= deadline {
                                    stop.store(true, Ordering::SeqCst);
                                }
                            }
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                break 'rounds;
                            }
                            spans.enabled = on;
                            for _ in 0..BLOCK {
                                for op in gen::iteration_ops(
                                    p.workload,
                                    sw,
                                    &mut rng,
                                    client,
                                    &mut standing,
                                ) {
                                    let id = ((client as u64) << 32) | n;
                                    n += 1;
                                    let t = Instant::now();
                                    let r = spans
                                        .span("op", id, |s| replay_op(tenant, &op, id, s, snaps));
                                    let ns = t.elapsed().as_nanos() as u64;
                                    match r {
                                        Ok(()) if on => traced.push(ns),
                                        Ok(()) => untraced.push(ns),
                                        // Record and carry on: leaving the loop here would
                                        // strand the other client at the barrier.
                                        Err(e) => failure = failure.or(Some(e)),
                                    }
                                }
                            }
                        }
                    }
                    match failure {
                        Some(e) => Err(format!("replay {e}")),
                        None => Ok((spans, traced, untraced)),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect::<Vec<_>>()
    });
    classic_obs::set_level(ObsLevel::Counters);
    let mut out = Replay::default();
    for r in per_client {
        let (spans, traced, untraced) = r?;
        out.threads.push(spans);
        out.traced_op_ns.extend(traced);
        out.untraced_op_ns.extend(untraced);
    }
    let snaps = snaps.into_inner().expect("snapshot log lock");
    out.snapshot_calls = snaps.calls;
    out.snapshot_hits = snaps.hits;
    out.cut_ns = snaps.cut_ns;
    Ok(out)
}

/// Replay `loads` ingest loads: the same CSV bodies through
/// `classic_ingest::plan` and `Tenant::ingest`, one fresh tenant each,
/// alternating traced and untraced loads.
pub fn ingest(p: &Params, loads: usize) -> Result<Replay, String> {
    let opts = classic_ingest::IngestOptions {
        format: classic_ingest::Format::Csv,
        entity: "PET".into(),
        id_column: Some("id".into()),
        infer: true,
        source: "perfbench".into(),
    };
    let mut spans = Spans::new(Instant::now(), 0);
    let mut out = Replay::default();
    for k in 0..loads.max(2) {
        let on = k % 2 == 0;
        classic_obs::set_level(level(on));
        spans.enabled = on;
        let csv = gen::pets_csv(p.seed, gen::load_stream(k), p.ingest_rows());
        let tenant = Tenant::open(&format!("load-{k}"), &p.work.join(format!("replay-{k}")))
            .map_err(|e| format!("replay tenant: {e}"))?;
        let id = k as u64;
        let t = Instant::now();
        let report = spans.span("op", id, |s| {
            let plan = s.span("ingest.plan", id, |_| {
                classic_ingest::plan(csv.as_bytes(), &opts)
            })?;
            s.span("tenant.ingest", id, |_| tenant.ingest(&plan))
        });
        let ns = t.elapsed().as_nanos() as u64;
        let rejected = report
            .map_err(|e| format!("replay load {k}: {e}"))?
            .report
            .rejected;
        if rejected > 0 {
            return Err(format!("replay load {k} rejected {rejected} rows"));
        }
        if on {
            out.traced_op_ns.push(ns);
        } else {
            out.untraced_op_ns.push(ns);
        }
    }
    classic_obs::set_level(ObsLevel::Counters);
    out.threads.push(spans);
    Ok(out)
}
