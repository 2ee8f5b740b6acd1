//! Cross-shard effects and the deterministic message bus for the sharded
//! propagation engine.
//!
//! The sharded fixpoint (see `propagate.rs`) is bulk-synchronous: each
//! epoch partitions the worklist across shards that own contiguous
//! [`IndId`] ranges, every shard *plans* its items against the shared
//! epoch-start state (`&Kb`, read-only), and the effects they would have
//! — conjunctions pushed onto fillers, `SAME-AS` derivations,
//! reverse-filler edges, recognition installs, rule firings — are
//! emitted as [`Effect`] messages onto a [`MessageBus`]. At the epoch
//! barrier the coordinator drains the bus in a canonical order and
//! applies the effects sequentially.
//!
//! Determinism rests on the bus contract: every message is tagged with
//! its emitting shard and a per-shard sequence number, queues are
//! per-destination, and [`MessageBus::drain_sorted`] yields destination
//! queues in index order, each sorted by `(src, seq)`. Since each
//! shard's emission order is itself deterministic (its item list is
//! sorted and planning is a pure function of the epoch-start state), the
//! applied effect order — and therefore the resulting state, including
//! the creation order of referenced-but-missing individuals — is a
//! function of the epoch-start state alone, independent of thread
//! scheduling.

use crate::deps::SupportKind;
use crate::individual::IndId;
use crate::kb::Kb;
use crate::propagate::PathResolution;
use classic_core::desc::IndRef;
use classic_core::error::{Clash, ClassicError};
use classic_core::normal::{NormalForm, RoleRestriction};
use classic_core::subsume::subsumes;
use classic_core::symbol::{IndName, RoleId};
use classic_core::taxonomy::NodeId;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Where an effect lands: an individual that existed at the epoch
/// snapshot, or one referenced by name that the apply phase must create
/// (in canonical drain order, so arena layout stays deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TargetRef {
    /// An individual present at epoch start.
    Id(IndId),
    /// A referenced-but-uncreated individual.
    Name(IndName),
}

/// One effect a shard computed while planning an individual. Each
/// variant mirrors a mutation `process_one` performs in place on the
/// sequential path.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Conjoin `nf` onto `target`, recording a support from `source`
    /// (unconditionally for `All` supports, only-if-changed for `Coref`
    /// — matching the sequential engine's provenance contract).
    Conjoin {
        target: TargetRef,
        nf: NormalForm,
        source: IndId,
        kind: SupportKind,
    },
    /// Record a support without conjoining: the restriction was already
    /// subsumed at plan time, and derived descriptions only grow, so it
    /// stays subsumed at apply time.
    Support {
        target: TargetRef,
        source: IndId,
        kind: SupportKind,
    },
    /// `host` holds `filler` as a role filler (idempotent to re-add).
    ReverseEdge { filler: TargetRef, host: IndId },
    /// `ind`'s recognition changed: install the recomputed instance set
    /// and most-specific frontier.
    Install {
        ind: IndId,
        qualifying: BTreeSet<NodeId>,
        msc: BTreeSet<NodeId>,
    },
    /// Rule `rule_ix` is due on `ind` (recognized under the antecedent,
    /// not yet fired).
    FireRule { ind: IndId, rule_ix: usize },
    /// Planning found an inconsistency; the first abort in canonical
    /// order becomes the transaction's error (the caller rolls back).
    Abort { ind: IndId, error: ClassicError },
}

/// Contiguous-range ownership of the individual arena: shard `s` owns
/// ids `[s·chunk, (s+1)·chunk)`, with the tail clamped to the last
/// shard. Recomputed at every epoch from the current arena length, so
/// individuals created mid-fixpoint are owned next epoch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Partition {
    chunk: usize,
    shards: usize,
}

impl Partition {
    pub(crate) fn new(arena_len: usize, shards: usize) -> Partition {
        let shards = shards.max(1);
        let chunk = arena_len.max(1).div_ceil(shards);
        Partition { chunk, shards }
    }

    /// Which shard owns `id`. Ids at or past the epoch-start arena
    /// length clamp to the last shard.
    pub(crate) fn owner(&self, id: IndId) -> usize {
        (id.index() / self.chunk).min(self.shards - 1)
    }

    /// The destination queue for an effect: effects on existing
    /// individuals go to their owner's queue; effects that must create
    /// an individual go to the extra creation queue (index `shards`),
    /// applied after all queues of existing owners.
    pub(crate) fn dest(&self, e: &Effect) -> usize {
        let target = match e {
            Effect::Conjoin { target, .. }
            | Effect::Support { target, .. }
            | Effect::ReverseEdge { filler: target, .. } => target,
            Effect::Install { ind, .. } | Effect::FireRule { ind, .. } => return self.owner(*ind),
            Effect::Abort { ind, .. } => return self.owner(*ind),
        };
        match target {
            TargetRef::Id(id) => self.owner(*id),
            TargetRef::Name(_) => self.shards,
        }
    }

    /// Queue count the bus needs: one per shard plus the creation queue.
    pub(crate) fn queues(&self) -> usize {
        self.shards + 1
    }
}

/// A message with its canonical-order key.
#[derive(Debug)]
pub(crate) struct Tagged<T> {
    /// Emitting shard.
    pub(crate) src: u32,
    /// Emission sequence within that shard.
    pub(crate) seq: u32,
    /// The payload.
    pub(crate) payload: T,
}

/// Per-destination message queues, shared by the epoch's shard workers.
/// Pushes take the destination queue's mutex only (shards contend only
/// when targeting the same destination); the drain happens after the
/// barrier, single-threaded.
#[derive(Debug)]
pub(crate) struct MessageBus<T> {
    queues: Vec<Mutex<Vec<Tagged<T>>>>,
}

impl<T> MessageBus<T> {
    pub(crate) fn new(queues: usize) -> MessageBus<T> {
        MessageBus {
            queues: (0..queues).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Append a message to `dest`'s queue. Panics on a poisoned queue
    /// mutex: planning holds no lock while computing (push is the only
    /// critical section, and a `Vec::push` does not unwind mid-update),
    /// so poisoning here means a bug, not a recoverable state.
    pub(crate) fn push(&self, dest: usize, msg: Tagged<T>) {
        self.queues[dest]
            .lock()
            .expect("message queue poisoned")
            .push(msg);
    }

    /// Queue depths at the barrier (for the shard queue-depth gauges).
    pub(crate) fn depths(&self) -> Vec<usize> {
        self.queues
            .iter()
            .map(|q| q.lock().expect("message queue poisoned").len())
            .collect()
    }

    /// Drain every queue in canonical order: destination queues in index
    /// order, each sorted by `(src, seq)`. Exactly the messages pushed
    /// are returned (the loom model test below pins no-loss under
    /// concurrent pushes), in an order independent of thread scheduling.
    pub(crate) fn drain_sorted(self) -> Vec<Tagged<T>> {
        let mut out = Vec::new();
        for q in self.queues {
            let mut msgs = q.into_inner().expect("message queue poisoned");
            msgs.sort_by_key(|m| (m.src, m.seq));
            out.append(&mut msgs);
        }
        out
    }
}

impl Kb {
    /// Read-only mirror of `process_one`: compute every effect that
    /// processing `id` would have against the current (epoch-start)
    /// state, emitting them in a deterministic order instead of mutating
    /// in place. Runs concurrently on shard workers over a shared `&Kb`
    /// (interior mutability is limited to atomic counters and the
    /// monotone per-individual TEST cache).
    pub(crate) fn plan_one(&self, id: IndId, emit: &mut dyn FnMut(Effect)) {
        let ind = &self.inds[id.index()];
        if let Some(clash) = ind.derived.clash() {
            emit(Effect::Abort {
                ind: id,
                error: ClassicError::Inconsistent {
                    individual: Some(ind.name),
                    reason: clash.clone(),
                },
            });
            return;
        }

        // ---- phase 1: ALL-propagation to fillers --------------------------
        for (&r, rr) in &ind.derived.roles {
            let all = rr.all.as_deref();
            for f in &rr.fillers {
                match f {
                    IndRef::Classic(name) => {
                        let target = match self.by_name.get(name) {
                            Some(&fid) => TargetRef::Id(fid),
                            None => TargetRef::Name(*name),
                        };
                        let edge_known = matches!(&target, TargetRef::Id(fid)
                            if self.reverse_fillers[fid.index()].contains(&id));
                        if !edge_known {
                            emit(Effect::ReverseEdge {
                                filler: target.clone(),
                                host: id,
                            });
                        }
                        if let Some(d) = all {
                            let kind = SupportKind::All { role: r };
                            // Subsumed at plan time stays subsumed at
                            // apply time (derived only grows), so the
                            // conjunction can be pre-filtered to a bare
                            // support record here on the parallel side.
                            let already = matches!(&target, TargetRef::Id(fid)
                                if subsumes(d, &self.inds[fid.index()].derived));
                            if already {
                                emit(Effect::Support {
                                    target,
                                    source: id,
                                    kind,
                                });
                            } else {
                                emit(Effect::Conjoin {
                                    target,
                                    nf: d.clone(),
                                    source: id,
                                    kind,
                                });
                            }
                        }
                    }
                    IndRef::Host(v) => {
                        if let Some(d) = all {
                            if !self.host_satisfies(v, d) {
                                emit(Effect::Abort {
                                    ind: id,
                                    error: ClassicError::Inconsistent {
                                        individual: Some(ind.name),
                                        reason: Clash::FillerViolation { role: r },
                                    },
                                });
                                return;
                            }
                        }
                    }
                }
            }
        }

        // ---- phase 2: SAME-AS co-reference ---------------------------------
        for class in ind.derived.same_as.classes() {
            if class.len() < 2 {
                continue;
            }
            let mut value: Option<IndRef> = None;
            let mut pending: Vec<(IndId, RoleId)> = Vec::new();
            let mut clash_role: Option<RoleId> = None;
            for path in &class {
                match self.resolve_path(id, path) {
                    PathResolution::Complete(v) => match &value {
                        None => value = Some(v),
                        Some(prev) if *prev != v => {
                            clash_role = Some(*path.last().expect("non-empty"));
                            break;
                        }
                        Some(_) => {}
                    },
                    PathResolution::AtLastStep { holder, last } => {
                        pending.push((holder, last));
                    }
                    PathResolution::Unresolved => {}
                }
            }
            if let Some(role) = clash_role {
                emit(Effect::Abort {
                    ind: id,
                    error: ClassicError::Inconsistent {
                        individual: Some(ind.name),
                        reason: Clash::CoreferenceClash { role },
                    },
                });
                return;
            }
            if let Some(v) = value {
                for (holder, last) in pending {
                    let mut fills = NormalForm::top();
                    fills.roles.insert(
                        last,
                        RoleRestriction {
                            fillers: BTreeSet::from([v.clone()]),
                            ..RoleRestriction::default()
                        },
                    );
                    fills.renormalize(&self.schema);
                    // Coref supports are recorded only when the
                    // conjunction changes something (sequential
                    // contract); an already-subsumed derivation emits
                    // nothing at all.
                    if subsumes(&fills, &self.inds[holder.index()].derived) {
                        continue;
                    }
                    emit(Effect::Conjoin {
                        target: TargetRef::Id(holder),
                        nf: fills,
                        source: id,
                        kind: SupportKind::Coref { role: last },
                    });
                }
            }
        }

        // ---- phase 3: recognition + due rules ------------------------------
        let (qualifying, msc) = self.compute_recognition(id);
        let due: Vec<usize> = qualifying
            .iter()
            .filter_map(|n| self.rules_by_node.get(n))
            .flatten()
            .copied()
            .filter(|ix| !ind.fired_rules.contains(ix))
            .collect();
        if qualifying != ind.instance_nodes {
            emit(Effect::Install {
                ind: id,
                qualifying,
                msc,
            });
        }
        for rule_ix in due {
            emit(Effect::FireRule { ind: id, rule_ix });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loom model test for the cross-shard queue: N shard workers push
    /// tagged messages concurrently; after the join barrier the drain
    /// must see *every* send (no lost messages) in the canonical
    /// `(queue, src, seq)` order, regardless of interleaving.
    #[test]
    fn bus_loses_no_messages_and_drains_canonically() {
        loom::model(|| {
            const SHARDS: usize = 3;
            const PER_SHARD: u32 = 8;
            let bus = loom::sync::Arc::new(MessageBus::<u64>::new(SHARDS + 1));
            let handles: Vec<_> = (0..SHARDS as u32)
                .map(|src| {
                    let bus = loom::sync::Arc::clone(&bus);
                    loom::thread::spawn(move || {
                        for seq in 0..PER_SHARD {
                            // Route round-robin so queues interleave
                            // messages from several sources.
                            let dest = ((src + seq) as usize) % (SHARDS + 1);
                            bus.push(
                                dest,
                                Tagged {
                                    src,
                                    seq,
                                    payload: (src as u64) << 32 | seq as u64,
                                },
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let bus = loom::sync::Arc::try_unwrap(bus)
                .unwrap_or_else(|_| panic!("bus still shared after join"));
            let drained = bus.drain_sorted();
            // Barrier sees all sends…
            assert_eq!(drained.len(), SHARDS * PER_SHARD as usize);
            let mut seen: Vec<u64> = drained.iter().map(|m| m.payload).collect();
            seen.sort_unstable();
            let mut expected: Vec<u64> = (0..SHARDS as u64)
                .flat_map(|s| (0..PER_SHARD as u64).map(move |q| s << 32 | q))
                .collect();
            expected.sort_unstable();
            assert_eq!(seen, expected, "a message was lost or duplicated");
            // …and the order is canonical: (src, seq) non-decreasing
            // within each destination's contiguous run. Tags alone do
            // not say where queue boundaries fall, so check the weaker
            // invariant that fully determines apply order given the
            // deterministic routing above: re-draining an identically
            // routed bus yields the identical order.
            let replay = MessageBus::<u64>::new(SHARDS + 1);
            for src in 0..SHARDS as u32 {
                for seq in 0..PER_SHARD {
                    let dest = ((src + seq) as usize) % (SHARDS + 1);
                    replay.push(
                        dest,
                        Tagged {
                            src,
                            seq,
                            payload: (src as u64) << 32 | seq as u64,
                        },
                    );
                }
            }
            let replayed: Vec<u64> = replay.drain_sorted().iter().map(|m| m.payload).collect();
            let first: Vec<u64> = drained.iter().map(|m| m.payload).collect();
            assert_eq!(first, replayed, "drain order depends on scheduling");
        });
    }

    #[test]
    fn partition_covers_the_arena_contiguously() {
        for (len, shards) in [(0usize, 4usize), (1, 4), (7, 3), (100, 4), (5, 8)] {
            let p = Partition::new(len, shards);
            let mut prev = 0usize;
            for ix in 0..len {
                let o = p.owner(IndId::from_index(ix));
                assert!(o < shards, "owner out of range");
                assert!(o >= prev, "ownership not monotone in id");
                prev = o;
            }
        }
    }
}
