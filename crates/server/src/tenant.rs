//! One tenant = one [`DurableKb`] plus a cached read snapshot.
//!
//! The server hosts many independent knowledge bases in one process.
//! Each lives in its own directory under the server data root and is
//! wrapped in a [`Tenant`], which arbitrates two access paths:
//!
//! - **Mutations** take the primary store lock, run through
//!   [`DurableKb::eval_durable`] (so every write hits the fsynced
//!   operation log), then bump the tenant *version* and invalidate the
//!   cached snapshot.
//! - **Reads** run against an [`Arc<Snapshot>`] — a clone of the KB
//!   taken at a specific version. Many readers share one clone; a
//!   reader holds its `Arc` for as long as it likes, so a concurrent
//!   writer (or background compaction changing the store generation)
//!   never shifts the ground under an in-flight query. That is
//!   snapshot isolation in the only sense a structural KB needs:
//!   each query sees one consistent version, pinned for its duration.
//!
//! A cut is cheap because `Kb::clone` is copy-on-write: the snapshot
//! shares every individual record, extension set, dependency entry and
//! the schema/taxonomy/rule tables with the primary, copying one pointer
//! per 64 individuals. The next write copies only the entries it
//! dirties, and dropping a superseded snapshot frees only those — so
//! neither the cut nor the drop deep-copies or deep-frees the KB; both
//! cost O(dirtied entries + individuals/64). The writer drops the
//! superseded snapshot after releasing the cache lock, so readers never
//! wait behind a free.
//!
//! Lock order is `primary` → `snap` never held together from the write
//! path (the writer drops the primary guard before touching the cache),
//! and the read path takes `snap` → `primary` only when the cache is
//! cold. Since no thread ever waits on `snap` while holding `primary`,
//! the pair cannot deadlock.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use classic_analyze::AnalysisState;
use classic_core::{ClassicError, Result};
use classic_kb::Kb;
use classic_lang::{Command, LintReport, Outcome};
use classic_obs::{Counter, FlightRecorder, Registry};
use classic_store::DurableKb;

/// A poisoned tenant lock means some earlier evaluation panicked while
/// holding it, so the guarded KB may be mid-mutation. Rather than let
/// every subsequent request kill its worker thread via `expect`, the
/// server answers with this error — the rest of the process (other
/// tenants, metrics, health checks) keeps serving.
fn poisoned(what: &str, tenant: &str) -> ClassicError {
    ClassicError::Storage {
        path: tenant.to_owned(),
        generation: None,
        detail: format!(
            "{what} lock poisoned: a previous request panicked mid-operation; \
             restart the server to reopen this tenant from its log"
        ),
    }
}

/// An immutable-by-convention copy of a tenant KB at one version.
///
/// The copy is a copy-on-write `Kb::clone`: it shares all unchanged
/// state with the primary (and with older snapshots), so cutting one
/// costs pointer copies, and later writes to the primary copy only what
/// they touch — the snapshot never observes them.
///
/// The inner `Mutex<Kb>` exists because query evaluation takes
/// `&mut Kb` (interning a name the KB has never seen, `what-if` trial
/// assertions that roll themselves back) — logically the snapshot never
/// changes. Both write into the snapshot's own copies, never into state
/// it shares with the primary.
pub struct Snapshot {
    /// Store generation (manifest) the snapshot was cut at.
    pub generation: u64,
    /// Tenant version (monotone per-mutation counter) it reflects.
    pub version: u64,
    kb: Mutex<Kb>,
}

impl Snapshot {
    /// Run `f` against the snapshot KB. Errs if a previous query
    /// panicked mid-evaluation and poisoned the snapshot (a `what-if`
    /// trial may have been left half rolled back), in which case the
    /// snapshot is unusable — the next mutation or version check cuts a
    /// fresh one from the primary.
    pub fn with_kb<T>(&self, f: impl FnOnce(&mut Kb) -> T) -> Result<T> {
        let mut kb = self
            .kb
            .lock()
            .map_err(|_| poisoned("snapshot", "snapshot"))?;
        Ok(f(&mut kb))
    }

    /// Evaluate a read-only command against this snapshot.
    pub fn eval(&self, cmd: &Command) -> Result<Outcome> {
        self.with_kb(|kb| classic_lang::eval(kb, cmd))?
    }
}

/// A named durable KB hosted by the server.
///
/// Lock order: `primary` → `analysis` (the lint path holds both — the
/// analysis state tracks the *primary* KB, so it refreshes under the
/// store lock); never acquire `primary` while holding `analysis` or
/// `snap`.
pub struct Tenant {
    name: String,
    version: AtomicU64,
    primary: Mutex<DurableKb>,
    snap: Mutex<Option<Arc<Snapshot>>>,
    /// Incrementally-maintained analysis over the primary KB: mutation
    /// cones are marked as writes land, `(lint-kb)` refreshes in O(cone).
    analysis: Mutex<AnalysisState>,
    /// When set, every mutation reply carries the cone diagnostics its
    /// write re-derived (`(lint-on-write on)`).
    lint_on_write: AtomicBool,
    /// The tenant KB's metric registry, cached at open so `/metrics`
    /// can render a tenant-labeled section without the primary lock.
    /// `Kb::clone` shares this `Arc`, so snapshot and sandbox evals
    /// land in the same registry.
    registry: Arc<Registry>,
    /// The tenant KB's flight recorder, cached for the same reason:
    /// request root spans and `GET /trace?tenant=…` both need it
    /// without waiting behind a writer.
    recorder: Arc<FlightRecorder>,
    /// Wire requests routed to this tenant (line protocol and HTTP),
    /// registered in the tenant's own registry so the roll-up sums it
    /// and the labeled section attributes it.
    requests: Counter,
}

/// A point-in-time summary of one tenant, for `/stats`.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name (also its directory stem under the data root).
    pub name: String,
    /// Mutations applied since the server opened the tenant.
    pub version: u64,
    /// Snapshot-store generation (advances on compaction).
    pub generation: u64,
    /// Operations in the log suffix not yet folded into segments.
    pub pending_ops: u64,
    /// Individuals in the KB.
    pub individuals: usize,
    /// Named concepts in the schema.
    pub concepts: usize,
    /// Classification rules (including retracted tombstones).
    pub rules: usize,
}

impl Tenant {
    /// Open (or create) the tenant rooted at `dir`, replaying its log.
    ///
    /// The wire protocol has no way to ship host test functions, so the
    /// tenant registers none; a log that references `(test ...)`
    /// predicates from an embedded-use session will fail to open here,
    /// which is the honest outcome.
    pub fn open(name: &str, dir: &Path) -> Result<Tenant> {
        std::fs::create_dir_all(dir).map_err(|e| ClassicError::Storage {
            path: dir.display().to_string(),
            generation: None,
            detail: format!("creating tenant directory: {e}"),
        })?;
        let mut store = DurableKb::open(dir.join("kb.log"), |_| {})?;
        let (registry, recorder) = {
            let kb = store.kb_mut_for_queries();
            (Arc::clone(kb.metrics()), Arc::clone(kb.flight_recorder()))
        };
        let requests = registry
            .counter(
                "classic_tenant_requests_total",
                "wire requests routed to this tenant",
            )
            .map_err(|e| ClassicError::Malformed(e.to_string()))?;
        Ok(Tenant {
            name: name.to_owned(),
            version: AtomicU64::new(0),
            primary: Mutex::new(store),
            snap: Mutex::new(None),
            analysis: Mutex::new(AnalysisState::new()),
            lint_on_write: AtomicBool::new(false),
            registry,
            recorder,
            requests,
        })
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current version: the number of successful mutations so far.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The tenant KB's metric registry (snapshot/sandbox clones share
    /// it); `/metrics` renders its series under a `tenant="…"` label.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The tenant KB's flight recorder: every request root span for
    /// this tenant records here, and `GET /trace?tenant=…` reads it.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Count one wire request (line-protocol form or HTTP eval) routed
    /// to this tenant.
    pub fn count_request(&self) {
        self.requests.bump();
    }

    fn lock_primary(&self) -> Result<MutexGuard<'_, DurableKb>> {
        self.primary
            .lock()
            .map_err(|_| poisoned("primary store", &self.name))
    }

    fn lock_snap(&self) -> Result<MutexGuard<'_, Option<Arc<Snapshot>>>> {
        self.snap
            .lock()
            .map_err(|_| poisoned("snapshot cache", &self.name))
    }

    fn lock_analysis(&self) -> Result<MutexGuard<'_, AnalysisState>> {
        self.analysis
            .lock()
            .map_err(|_| poisoned("analysis state", &self.name))
    }

    /// Whether mutation replies carry their cone diagnostics.
    pub fn lint_on_write(&self) -> bool {
        self.lint_on_write.load(Ordering::Acquire)
    }

    /// Toggle lint-on-write mode for this tenant.
    pub fn set_lint_on_write(&self, on: bool) {
        self.lint_on_write.store(on, Ordering::Release);
    }

    /// Evaluate one command, routing by [`Command::is_mutation`]:
    /// writes through the durable log, reads against a shared snapshot.
    pub fn execute(&self, cmd: &Command) -> Result<Outcome> {
        self.execute_with_lint(cmd).map(|(outcome, _)| outcome)
    }

    /// [`Self::execute`], additionally returning the cone diagnostics
    /// the write re-derived when lint-on-write is enabled.
    ///
    /// Two commands leave the plain read/write split:
    ///
    /// * `(lint-kb [cone])` is a read, but it is answered from the
    ///   tenant's incremental [`AnalysisState`], which tracks the
    ///   *primary* KB — so it refreshes under the store lock (O(cone),
    ///   not O(KB)) instead of evaluating against a snapshot.
    /// * Mutations mark their analysis cone as they land (retraction
    ///   cones before the journal shrinks, assertion cones after it
    ///   grows); with lint-on-write on they also refresh and return the
    ///   cone's diagnostics.
    pub fn execute_with_lint(&self, cmd: &Command) -> Result<(Outcome, Option<LintReport>)> {
        if matches!(cmd, Command::LintKb { .. }) {
            let mut store = self.lock_primary()?;
            let mut analysis = self.lock_analysis()?;
            let outcome =
                classic_lang::eval_monitored(store.kb_mut_for_queries(), cmd, &mut analysis)?;
            return Ok((outcome, None));
        }
        if cmd.is_mutation() {
            let result = {
                let mut store = self.lock_primary()?;
                let mut analysis = self.lock_analysis()?;
                if let Command::RetractInd(name, _) = cmd {
                    classic_lang::mark_individual_dirty(
                        store.kb_mut_for_queries(),
                        &mut analysis,
                        name,
                    );
                }
                let outcome = store.eval_durable(cmd)?;
                if let Command::AssertInd(name, _) = cmd {
                    classic_lang::mark_individual_dirty(
                        store.kb_mut_for_queries(),
                        &mut analysis,
                        name,
                    );
                }
                let lint = if self.lint_on_write() {
                    let refresh = analysis.refresh(store.kb_mut_for_queries());
                    Some(LintReport::from_refresh(&refresh))
                } else {
                    None
                };
                self.version.fetch_add(1, Ordering::AcqRel);
                (outcome, lint)
            };
            // Invalidate after releasing the store lock; a racing
            // reader that re-caches the old version loses only
            // freshness until the *next* version check, never
            // consistency (the stale snapshot is still one version).
            self.invalidate_snapshot()?;
            Ok(result)
        } else {
            Ok((self.snapshot()?.eval(cmd)?, None))
        }
    }

    /// Bulk-load a prepared ingest plan through the store's segment
    /// tier ([`DurableKb::bulk_load`]): one compaction, no per-row log
    /// appends, manifest rename as the commit point.
    ///
    /// A bulk load can add roles, concepts, and thousands of
    /// individuals at once, so instead of marking cones the tenant
    /// resets its incremental analysis state — the next `(lint-kb)`
    /// recomputes from scratch, which is the honest cost of a batch
    /// write. The version bumps once per ingest (it counts mutation
    /// *requests*, not rows) and the snapshot cache is invalidated
    /// after the primary lock is released, same as [`Self::execute`].
    pub fn ingest(
        &self,
        plan: &classic_ingest::IngestPlan,
    ) -> Result<classic_store::BulkLoadReport> {
        let out = {
            let mut store = self.lock_primary()?;
            let mut analysis = self.lock_analysis()?;
            let out = classic_ingest::run_durable(&mut store, plan)?;
            *analysis = AnalysisState::new();
            self.version.fetch_add(1, Ordering::AcqRel);
            out
        };
        self.invalidate_snapshot()?;
        Ok(out)
    }

    /// Drop the cached snapshot. The cache lock is released before the
    /// snapshot is: if the cache held the last reference, freeing the
    /// state it no longer shares happens outside the lock, so readers
    /// never wait behind the writer's free.
    fn invalidate_snapshot(&self) -> Result<()> {
        let superseded = self.lock_snap()?.take();
        drop(superseded);
        Ok(())
    }

    /// Get the shared snapshot for the current version, cutting a fresh
    /// copy-on-write clone from the primary iff the cache is stale or
    /// cold.
    pub fn snapshot(&self) -> Result<Arc<Snapshot>> {
        let version = self.version();
        let mut cache = self.lock_snap()?;
        if let Some(s) = cache.as_ref() {
            if s.version == version {
                return Ok(Arc::clone(s));
            }
        }
        let mut store = self.lock_primary()?;
        // Re-read under the lock: a mutation may have landed between
        // the version load above and acquiring the primary.
        let version = self.version();
        let snapshot = Arc::new(Snapshot {
            generation: store.generation(),
            version,
            kb: Mutex::new(store.kb_mut_for_queries().clone()),
        });
        // A stale snapshot still in the cache is freed outside both locks.
        drop(store);
        let superseded = cache.replace(Arc::clone(&snapshot));
        drop(cache);
        drop(superseded);
        Ok(snapshot)
    }

    /// Run `f` with the primary store locked — administrative access
    /// for flush/compaction control and tests.
    pub fn with_store<T>(&self, f: impl FnOnce(&mut DurableKb) -> T) -> Result<T> {
        let mut store = self.lock_primary()?;
        Ok(f(&mut store))
    }

    /// Flush the operation log to disk (used by graceful shutdown).
    pub fn flush(&self) -> Result<()> {
        self.with_store(|s| {
            // Land any background compaction first so the manifest and
            // log agree, then sync the log tail.
            s.wait_for_compaction()?;
            s.flush()
        })?
    }

    /// Summarize the tenant for `/stats`. Errs if the primary lock is
    /// poisoned (the tenant then also rejects every command).
    pub fn stats(&self) -> Result<TenantStats> {
        let mut store = self.lock_primary()?;
        let generation = store.generation();
        let pending_ops = store.pending_ops();
        let kb = store.kb_mut_for_queries();
        Ok(TenantStats {
            name: self.name.clone(),
            version: self.version(),
            generation,
            pending_ops,
            individuals: kb.ind_count(),
            concepts: kb.schema().concept_count(),
            rules: kb.rules().len(),
        })
    }
}
