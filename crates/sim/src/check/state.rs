//! State representations: the mutable scratch state the transition
//! executor runs on in place, and the compact interned form the
//! explorer stores.
//!
//! The seed explorer kept every reachable state as a full [`CkState`]
//! clone inside a `HashMap<CkState, usize>` — two deep copies per stored
//! state and a SipHash over the whole structure per lookup. Here a stored
//! state is four `u32` component ids ([`CompactState`], 16 bytes):
//!
//! * `sig` — the interned signal valuation (`Box<[Value]>`);
//! * `var` — an interned vector of per-group variable-valuation ids,
//!   grouped by the variables' owning behavior so one process's step
//!   re-interns only its own group;
//! * `ctl` — an interned vector of per-process control ids (the PC
//!   vector), each entry an interned [`CkProc`];
//! * `env` — the interned fault environment (budgets + frozen mask).
//!
//! Interning is canonical (equal components share one id), so two states
//! are equal iff their `CompactState`s are equal — exact dedup compares
//! 16 bytes instead of whole states. A 64-bit fingerprint over the ids
//! shards the dedup table and drives the opt-in lossy bitstate mode.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use ifsyn_spec::{System, Value};

use super::fx::{fx_hash, splitmix, BuildFx};
use crate::process::Frame;

/// Control state of one behavior instance.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(super) struct CkProc {
    pub frames: Vec<Frame>,
    pub done: bool,
}

impl Clone for CkProc {
    fn clone(&self) -> Self {
        Self {
            frames: self.frames.clone(),
            done: self.done,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.frames.clone_from(&src.frames);
        self.done = src.done;
    }
}

/// One materialized system state: storage, every process's control
/// point, and the remaining environment-fault budgets. This is the
/// executable *scratch* form the transition executor mutates in place;
/// the explorer stores only [`CompactState`]s and restores a scratch
/// state from their pooled components, so it is never cloned whole.
#[derive(Debug)]
pub(super) struct CkState {
    pub signals: Vec<Value>,
    pub vars: Vec<Value>,
    pub procs: Vec<CkProc>,
    /// Remaining strikes per configured fault, in config order.
    pub fault_budget: Vec<u32>,
    /// Signals forced by a stuck fault: later writes are swallowed.
    pub frozen: Vec<bool>,
}

/// Static storage layout: variables grouped by owning behavior so one
/// process's step dirties (and re-interns) only its own group.
#[derive(Debug)]
pub(super) struct Layout {
    /// Variable index → group index.
    pub group_of_var: Vec<u32>,
    /// Variable index → position within its group's valuation.
    pub offset_in_group: Vec<u32>,
    /// Group index → member variable indices, ascending.
    pub group_members: Vec<Vec<u32>>,
}

impl Layout {
    pub fn new(system: &System) -> Self {
        let nb = system.behaviors.len();
        // Group per owning behavior, densely renumbered over behaviors
        // that actually own variables (declaration order).
        let mut group_of_behavior = vec![u32::MAX; nb];
        let mut group_members: Vec<Vec<u32>> = Vec::new();
        let mut group_of_var = Vec::with_capacity(system.variables.len());
        let mut offset_in_group = Vec::with_capacity(system.variables.len());
        for (v, decl) in system.variables.iter().enumerate() {
            let b = decl.owner.index();
            if group_of_behavior[b] == u32::MAX {
                group_of_behavior[b] = group_members.len() as u32;
                group_members.push(Vec::new());
            }
            let g = group_of_behavior[b];
            group_of_var.push(g);
            offset_in_group.push(group_members[g as usize].len() as u32);
            group_members[g as usize].push(v as u32);
        }
        Self {
            group_of_var,
            offset_in_group,
            group_members,
        }
    }

    /// Number of variable groups.
    pub fn groups(&self) -> usize {
        self.group_members.len()
    }

    /// Copies one group's valuation out of a flat variable array.
    pub fn extract_group(&self, g: u32, vars: &[Value]) -> Box<[Value]> {
        self.group_members[g as usize]
            .iter()
            .map(|&v| vars[v as usize].clone())
            .collect()
    }
}

/// The interned fault environment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct EnvComp {
    pub fault_budget: Box<[u32]>,
    pub frozen: Box<[bool]>,
}

enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

/// A canonical component pool: equal values share one id, ids index the
/// insertion-ordered `items` vector. The map is keyed by FxHash with
/// explicit buckets, so a lookup is one hash of the component plus an
/// equality check per (rare) collision.
///
/// Lookups also take a borrowed form of the component (`[T]` for a
/// `Box<[T]>`, which hashes identically), so a caller holding the value
/// in a scratch buffer resolves it to an existing id without allocating
/// and pays for a boxed copy only on a miss.
pub(super) struct Interner<T> {
    items: Vec<T>,
    map: HashMap<u64, Bucket, BuildFx>,
}

impl<T: Hash + Eq> Interner<T> {
    pub fn new() -> Self {
        Self {
            items: Vec::new(),
            map: HashMap::default(),
        }
    }

    #[inline]
    pub fn get(&self, id: u32) -> &T {
        &self.items[id as usize]
    }

    /// Number of pooled components: the id the next miss gets.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Interns an owned component, returning its canonical id (the
    /// value is dropped when an equal component is already pooled).
    pub fn intern(&mut self, value: T) -> u32 {
        let h = fx_hash(&value);
        match self.lookup(h, &value) {
            Some(id) => id,
            None => self.insert(h, value),
        }
    }

    /// Interns the component equal to `key`, calling `make` to build an
    /// owned copy only when none is pooled yet.
    pub fn intern_with<Q>(&mut self, key: &Q, make: impl FnOnce() -> T) -> u32
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let h = fx_hash(key);
        match self.lookup(h, key) {
            Some(id) => id,
            None => self.insert(h, make()),
        }
    }

    fn lookup<Q>(&self, h: u64, key: &Q) -> Option<u32>
    where
        T: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let same = |&id: &u32| self.items[id as usize].borrow() == key;
        match self.map.get(&h)? {
            Bucket::One(id) => Some(*id).filter(same),
            Bucket::Many(ids) => ids.iter().copied().find(same),
        }
    }

    /// Forgets every component pooled after the first `len`, so the
    /// next misses get their ids again.
    pub fn truncate(&mut self, len: usize) {
        while self.items.len() > len {
            let value = self.items.pop().expect("longer than len");
            let Entry::Occupied(mut bucket) = self.map.entry(fx_hash(&value)) else {
                unreachable!("every pooled component is indexed under its hash")
            };
            // Ids enter a bucket in increasing order: the dropped one is
            // its last.
            match bucket.get_mut() {
                Bucket::Many(ids) if ids.len() > 1 => {
                    ids.pop();
                }
                _ => {
                    bucket.remove();
                }
            }
        }
    }

    /// Pools a value known to be absent under hash `h`.
    fn insert(&mut self, h: u64, value: T) -> u32 {
        let id = u32::try_from(self.items.len()).expect("component pool overflow");
        self.items.push(value);
        self.map
            .entry(h)
            .and_modify(|b| match b {
                Bucket::One(first) => *b = Bucket::Many(vec![*first, id]),
                Bucket::Many(ids) => ids.push(id),
            })
            .or_insert(Bucket::One(id));
        id
    }
}

/// All component pools of one exploration.
pub(super) struct Pools {
    /// Signal valuations.
    pub sigs: Interner<Box<[Value]>>,
    /// Per-group variable valuations.
    pub groups: Interner<Box<[Value]>>,
    /// Per-state vectors of group-valuation ids.
    pub varvecs: Interner<Box<[u32]>>,
    /// Per-process control states.
    pub procs: Interner<CkProc>,
    /// Per-state vectors of process-control ids (the PC vector).
    pub ctls: Interner<Box<[u32]>>,
    /// Fault environments.
    pub envs: Interner<EnvComp>,
}

/// The pool sizes at one point of an exploration, for
/// [`Pools::truncate`] to go back to.
#[derive(Debug, Clone, Copy)]
pub(super) struct PoolMark([usize; 6]);

impl Pools {
    pub fn new() -> Self {
        Self {
            sigs: Interner::new(),
            groups: Interner::new(),
            varvecs: Interner::new(),
            procs: Interner::new(),
            ctls: Interner::new(),
            envs: Interner::new(),
        }
    }

    pub fn mark(&self) -> PoolMark {
        PoolMark([
            self.sigs.len(),
            self.groups.len(),
            self.varvecs.len(),
            self.procs.len(),
            self.ctls.len(),
            self.envs.len(),
        ])
    }

    /// Drops every component pooled since `mark` was taken.
    pub fn truncate(&mut self, mark: PoolMark) {
        let [sigs, groups, varvecs, procs, ctls, envs] = mark.0;
        self.sigs.truncate(sigs);
        self.groups.truncate(groups);
        self.varvecs.truncate(varvecs);
        self.procs.truncate(procs);
        self.ctls.truncate(ctls);
        self.envs.truncate(envs);
    }
}

/// One stored state: four component-pool ids, 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) struct CompactState {
    pub sig: u32,
    pub var: u32,
    pub ctl: u32,
    pub env: u32,
}

impl CompactState {
    /// 64-bit fingerprint over the component ids: shards the dedup
    /// table, and is the whole identity in bitstate mode.
    #[inline]
    pub fn fingerprint(self) -> u64 {
        let a = splitmix(u64::from(self.sig) | (u64::from(self.var) << 32));
        splitmix(a ^ (u64::from(self.ctl) | (u64::from(self.env) << 32)))
    }
}

/// Dedup-table shard count (indexed by fingerprint high bits).
const DEDUP_SHARDS: usize = 16;

#[inline]
fn shard_of(fp: u64) -> usize {
    (fp >> 48) as usize & (DEDUP_SHARDS - 1)
}

/// The visited-state index, sharded by fingerprint.
///
/// `Exact` maps the full 16-byte [`CompactState`] (collision-free, since
/// interned ids are canonical). `Bitstate` keys only the masked 64-bit
/// fingerprint: distinct states whose masked fingerprints collide are
/// merged, so exploration becomes a lossy sweep — any violation found is
/// real, but absence of one proves nothing (see the ROBUSTNESS docs).
pub(super) enum Dedup {
    Exact(Vec<HashMap<CompactState, u32, BuildFx>>),
    Bitstate {
        mask: u64,
        shards: Vec<HashMap<u64, u32, BuildFx>>,
    },
}

impl Dedup {
    pub fn exact() -> Self {
        Dedup::Exact((0..DEDUP_SHARDS).map(|_| HashMap::default()).collect())
    }

    pub fn bitstate(bits: u32) -> Self {
        let bits = bits.clamp(8, 63);
        Dedup::Bitstate {
            mask: (1u64 << bits) - 1,
            shards: (0..DEDUP_SHARDS).map(|_| HashMap::default()).collect(),
        }
    }

    /// Looks up a state without inserting.
    #[inline]
    pub fn probe(&self, cs: CompactState, fp: u64) -> Option<u32> {
        match self {
            Dedup::Exact(shards) => shards[shard_of(fp)].get(&cs).copied(),
            Dedup::Bitstate { mask, shards } => shards[shard_of(fp)].get(&(fp & mask)).copied(),
        }
    }

    /// Records a newly discovered state's index.
    #[inline]
    pub fn insert(&mut self, cs: CompactState, fp: u64, id: u32) {
        match self {
            Dedup::Exact(shards) => {
                shards[shard_of(fp)].insert(cs, id);
            }
            Dedup::Bitstate { mask, shards } => {
                shards[shard_of(fp)].insert(fp & *mask, id);
            }
        }
    }
}
