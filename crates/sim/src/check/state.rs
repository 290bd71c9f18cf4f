//! State representations: the mutable scratch storage the transition
//! executor runs on in place, and the compact interned form the
//! explorer stores.
//!
//! The seed explorer kept every reachable state as a full clone inside
//! a `HashMap` keyed by the whole state — two deep copies per stored
//! state and a SipHash over the whole structure per lookup. Here a stored
//! state is four `u32` component ids ([`CompactState`], 16 bytes):
//!
//! * `sig` — the interned signal valuation, one [`Value`] per signal;
//! * `var` — an interned vector of per-group variable-valuation ids,
//!   grouped by the variables' owning behavior so one process's step
//!   re-interns only its own group;
//! * `ctl` — an interned vector of per-process control ids (the PC
//!   vector), each entry an interned [`CkProc`];
//! * `env` — the interned fault environment (budgets + frozen mask).
//!
//! Interning is canonical (equal components share one id), so two states
//! are equal iff their `CompactState`s are equal — dedup compares 16
//! bytes instead of whole states.
//!
//! Process controls stay interned even while a state is expanded: the
//! scratch [`CkState`] holds storage and the fault environment only,
//! the explorer keeps the expanded state's control ids beside it, and
//! only the running process's control is ever materialized. A release
//! moves a pooled control one pc further through
//! [`Pools::advance`], a memo from id to id.
//!
//! Every pool and the visited set index their keys through one
//! [`IdTable`]: an open-addressing table of `u32` ids whose keys live in
//! the pool's own storage. Components of one fixed length — signal
//! valuations, group-id vectors and control-id vectors — are stored back
//! to back in an [`Arena`]; process controls, group valuations and fault
//! environments keep one item each in a [`Pool`].
//!
//! Canonical ids also name a run's inputs exactly: a [`RunMemo`] keeps
//! what recent process runs left, keyed by the running process, its
//! control id and the state's signal-vector, variable-vector and
//! environment ids, so a run the exploration already made costs one
//! lookup.

use std::borrow::Borrow;
use std::hash::Hash;

use ifsyn_spec::{System, Value};

use super::fx::{fx_hash, splitmix};
use crate::process::{CodeRef, Frame};

/// Control state of one behavior instance.
#[derive(Debug, Default, PartialEq, Eq, Hash)]
pub(super) struct CkProc {
    pub frames: Vec<Frame>,
    pub done: bool,
}

impl CkProc {
    /// Behavior `b` before its first instruction.
    pub fn start(b: usize) -> Self {
        Self {
            frames: vec![Frame::new(CodeRef::Behavior(b), Vec::new())],
            done: false,
        }
    }
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

/// One materialized system state without its process controls: storage
/// and the remaining environment-fault budgets. This is the executable
/// *scratch* form the transition executor mutates in place; the
/// explorer stores only [`CompactState`]s and restores a scratch state
/// from their pooled components, so it is never cloned whole.
#[derive(Debug)]
pub(super) struct CkState {
    pub signals: Vec<Value>,
    pub vars: Vec<Value>,
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

/// A free slot. No id is `u32::MAX`, so no occupied slot reads as this.
const EMPTY: u32 = u32::MAX;

/// Slots of a new table; a power of two.
const MIN_SLOTS: usize = 16;

/// An open-addressing hash table of `u32` ids whose keys live in the
/// caller's storage, with linear probing at a load of at most ½.
///
/// A slot holds one id and nothing else. A key's home slot is the top
/// bits of the high half of its 64-bit hash; a probe asks the caller
/// whether the id in each occupied slot it passes names the key, and
/// growth asks the caller for each stored id's hash. Four-byte slots
/// halve the table against slots that also keep a 32-bit hash tag (see
/// `docs/PERFORMANCE.md`, "State store").
pub(super) struct IdTable {
    slots: Vec<u32>,
    len: usize,
}

/// Where [`IdTable::find`] would store a key it did not find.
#[derive(Debug, Clone, Copy)]
pub(super) struct Vacant {
    slot: usize,
}

impl Vacant {
    /// The free slot the key would go in.
    #[cfg(test)]
    pub fn slot(self) -> usize {
        self.slot
    }
}

impl IdTable {
    pub fn new() -> Self {
        Self {
            slots: vec![EMPTY; MIN_SLOTS],
            len: 0,
        }
    }

    /// Number of stored ids.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of slots.
    #[cfg(test)]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn home(&self, h: u64) -> usize {
        // `slots` is a power of two no larger than 2^32: the high half
        // of the hash, shifted by its log2, picks the slot.
        let bits = self.slots.len().trailing_zeros();
        ((h >> 32) << bits >> 32) as usize
    }

    /// The stored id under hash `h` whose key `is_key` accepts, or where
    /// to store one. Allocates nothing.
    #[inline]
    pub fn find(&self, h: u64, mut is_key: impl FnMut(u32) -> bool) -> Result<u32, Vacant> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(h);
        loop {
            let id = self.slots[i];
            if id == EMPTY {
                return Err(Vacant { slot: i });
            }
            if is_key(id) {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `id` where the last [`IdTable::find`] missed. Once the
    /// table is more than half full it doubles, re-placing every stored
    /// id by `hash_of` it.
    pub fn insert(&mut self, at: Vacant, id: u32, hash_of: impl Fn(u32) -> u64) {
        debug_assert!(self.slots[at.slot] == EMPTY && id != EMPTY);
        self.slots[at.slot] = id;
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            let n = self.slots.len() * 2;
            assert!(n.trailing_zeros() <= 32, "id table overflow");
            let old = std::mem::replace(&mut self.slots, vec![EMPTY; n]);
            let mask = n - 1;
            for id in old.into_iter().filter(|&id| id != EMPTY) {
                let mut i = self.home(hash_of(id));
                while self.slots[i] != EMPTY {
                    i = (i + 1) & mask;
                }
                self.slots[i] = id;
            }
        }
    }
}

/// The id the next component of a pool holding `len` gets.
fn next_id(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&id| id != u32::MAX)
        .expect("component pool overflow")
}

/// A canonical pool of components that all have one length, `stride`
/// values each, stored back to back: equal components share one id, and
/// ids number the components in insertion order.
pub(super) struct Arena<T> {
    data: Vec<T>,
    stride: usize,
    len: usize,
    table: IdTable,
}

impl<T: Clone + Hash + Eq> Arena<T> {
    pub fn new(stride: usize) -> Self {
        Self {
            data: Vec::new(),
            stride,
            len: 0,
            table: IdTable::new(),
        }
    }

    #[inline]
    pub fn get(&self, id: u32) -> &[T] {
        let at = id as usize * self.stride;
        &self.data[at..at + self.stride]
    }

    /// Interns the component equal to `key`, copying it in only when none
    /// is pooled yet.
    pub fn intern(&mut self, key: &[T]) -> u32 {
        debug_assert_eq!(key.len(), self.stride);
        let h = fx_hash(key);
        let Self {
            data,
            stride,
            len,
            table,
        } = self;
        let stride = *stride;
        match table.find(h, |id| data[id as usize * stride..][..stride] == *key) {
            Ok(id) => id,
            Err(at) => {
                let id = next_id(*len);
                data.extend_from_slice(key);
                *len += 1;
                table.insert(at, id, |id| {
                    fx_hash(&data[id as usize * stride..][..stride])
                });
                id
            }
        }
    }

    /// The stored values, their capacity and the table's slots: what a
    /// hit leaves unchanged.
    #[cfg(test)]
    pub fn footprint(&self) -> (usize, usize, usize) {
        (self.data.len(), self.data.capacity(), self.table.slots())
    }
}

/// A canonical pool of components of varying size, one item each: equal
/// components share one id, and ids index the insertion-ordered items.
///
/// Lookups also take a borrowed form of the component (`[T]` for a
/// `Box<[T]>`, which hashes identically), so a caller holding the value
/// in a scratch buffer resolves it to an existing id without allocating
/// and pays for an owned copy only on a miss.
pub(super) struct Pool<T> {
    items: Vec<T>,
    table: IdTable,
}

impl<T: Hash + Eq> Pool<T> {
    pub fn new() -> Self {
        Self {
            items: Vec::new(),
            table: IdTable::new(),
        }
    }

    #[inline]
    pub fn get(&self, id: u32) -> &T {
        &self.items[id as usize]
    }

    /// Number of pooled components.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Interns an owned component, returning its canonical id (the
    /// value is dropped when an equal component is already pooled).
    pub fn intern(&mut self, value: T) -> u32 {
        let h = fx_hash(&value);
        let Self { items, table } = self;
        match table.find(h, |id| items[id as usize] == value) {
            Ok(id) => id,
            Err(at) => Self::push(items, table, at, value),
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
        let Self { items, table } = self;
        match table.find(h, |id| items[id as usize].borrow() == key) {
            Ok(id) => id,
            Err(at) => Self::push(items, table, at, make()),
        }
    }

    fn push(items: &mut Vec<T>, table: &mut IdTable, at: Vacant, value: T) -> u32 {
        let id = next_id(items.len());
        items.push(value);
        table.insert(at, id, |id| fx_hash(&items[id as usize]));
        id
    }
}

/// All component pools of one exploration.
pub(super) struct Pools {
    /// Signal valuations, one value per signal.
    pub sigs: Arena<Value>,
    /// Per-group variable valuations.
    pub groups: Pool<Box<[Value]>>,
    /// Per-state vectors of group-valuation ids, one per group.
    pub varvecs: Arena<u32>,
    /// Per-process control states.
    pub procs: Pool<CkProc>,
    /// Per-control memo of [`Pools::advance`]: the id of the control one
    /// pc further, or [`EMPTY`] until it is first asked for.
    advanced: Vec<u32>,
    /// Per-state vectors of process-control ids (the PC vector), one per
    /// process.
    pub ctls: Arena<u32>,
    /// Fault environments.
    pub envs: Pool<EnvComp>,
}

impl Pools {
    pub fn new(signals: usize, groups: usize, procs: usize) -> Self {
        Self {
            sigs: Arena::new(signals),
            groups: Pool::new(),
            varvecs: Arena::new(groups),
            procs: Pool::new(),
            advanced: Vec::new(),
            ctls: Arena::new(procs),
            envs: Pool::new(),
        }
    }

    /// The id of control `id` with its top frame's pc one further: a
    /// release past the wait it is parked at. The first release of a
    /// control interns the advanced copy; every later one is a lookup.
    pub fn advance(&mut self, id: u32) -> u32 {
        if let Some(&next) = self.advanced.get(id as usize).filter(|&&n| n != EMPTY) {
            return next;
        }
        let mut ctl = self.procs.get(id).clone();
        ctl.frames
            .last_mut()
            .expect("a parked control has a frame")
            .pc += 1;
        let next = self.procs.intern(ctl);
        self.advanced.resize(self.procs.len(), EMPTY);
        self.advanced[id as usize] = next;
        next
    }
}

/// Slots of an exploration's [`RunMemo`], 40 bytes each: 160 KB. On the
/// pinned catalog 4,096 slots recall 80% of the runs, against 73% at
/// 1,024 and 82% at 16,384; on the FLC, whose distinct runs outnumber
/// any table, bigger tables ran slower (see `docs/PERFORMANCE.md`,
/// "Memoized runs").
const MEMO_SLOTS: usize = 1 << 12;

/// The inputs of one ordinary process run, by canonical pool id: the
/// running process, its control, and the source state's signal vector,
/// variable vector and fault environment (whose frozen mask swallows
/// writes). A run reads nothing else but the fixed program, the
/// reduction tables and the step budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct RunKey {
    pub pid: u32,
    pub ctl: u32,
    pub sig: u32,
    pub var: u32,
    pub env: u32,
}

impl RunKey {
    /// No run's key: no pid reaches `u32::MAX`, since the checker
    /// refuses more than 2^30 behaviors.
    const VACANT: Self = Self {
        pid: u32::MAX,
        ctl: 0,
        sig: 0,
        var: 0,
        env: 0,
    };

    #[inline]
    fn hash(self) -> u64 {
        let a = splitmix(u64::from(self.sig) | (u64::from(self.var) << 32));
        let b = splitmix(a ^ (u64::from(self.ctl) | (u64::from(self.env) << 32)));
        splitmix(b ^ u64::from(self.pid))
    }
}

/// What one process run left, by canonical pool id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct RunOut {
    /// Cycles consumed: the transition's cost.
    pub cost: u64,
    /// The running control after its own releases.
    pub ctl: u32,
    /// The signal vector the run left.
    pub sig: u32,
    /// The variable vector the run left.
    pub var: u32,
    /// A signal value was stored (a swallowed write does not count).
    pub wrote_sig: bool,
    /// The running process released itself past a wait it parked at.
    pub released: bool,
    /// Every executed instruction and variable store was pure, tracked
    /// under the exploration's global reduction setting.
    pub pure: bool,
    /// The process finished.
    pub done: bool,
}

/// One [`RunMemo`] slot: a key and its run's outcome, the cost in 32
/// bits. 40 bytes.
#[derive(Clone, Copy)]
pub(super) struct MemoSlot {
    key: RunKey,
    cost: u32,
    ctl: u32,
    sig: u32,
    var: u32,
    wrote_sig: bool,
    released: bool,
    pure: bool,
    done: bool,
}

/// A fixed-size, direct-mapped memo of ordinary process runs, allocated
/// once per exploration: a key's slot is the top bits of its hash, and
/// a store evicts whatever held the slot. Pool ids are canonical and
/// never reassigned within one exploration, so a key names its run's
/// inputs exactly, and a hit is the run's outcome.
pub(super) struct RunMemo {
    slots: Box<[MemoSlot]>,
}

impl RunMemo {
    pub fn new() -> Self {
        let vacant = MemoSlot {
            key: RunKey::VACANT,
            cost: 0,
            ctl: 0,
            sig: 0,
            var: 0,
            wrote_sig: false,
            released: false,
            pure: false,
            done: false,
        };
        Self {
            slots: vec![vacant; MEMO_SLOTS].into_boxed_slice(),
        }
    }

    /// The slot `key` lives in.
    #[inline]
    pub fn slot_of(&self, key: RunKey) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.hash() >> (64 - bits)) as usize
    }

    /// The outcome stored under `key`, if its slot still holds it.
    #[inline]
    pub fn get(&self, key: RunKey) -> Option<RunOut> {
        let s = &self.slots[self.slot_of(key)];
        (s.key == key).then_some(RunOut {
            cost: u64::from(s.cost),
            ctl: s.ctl,
            sig: s.sig,
            var: s.var,
            wrote_sig: s.wrote_sig,
            released: s.released,
            pure: s.pure,
            done: s.done,
        })
    }

    /// Stores `out` under `key`, evicting the slot's previous key. A run
    /// of more than `u32::MAX` cycles is not stored.
    #[inline]
    pub fn put(&mut self, key: RunKey, out: RunOut) {
        let Ok(cost) = u32::try_from(out.cost) else {
            return;
        };
        let i = self.slot_of(key);
        self.slots[i] = MemoSlot {
            key,
            cost,
            ctl: out.ctl,
            sig: out.sig,
            var: out.var,
            wrote_sig: out.wrote_sig,
            released: out.released,
            pure: out.pure,
            done: out.done,
        };
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
    /// 64-bit fingerprint over the component ids: the state's hash in
    /// the visited set.
    #[inline]
    pub fn fingerprint(self) -> u64 {
        let a = splitmix(u64::from(self.sig) | (u64::from(self.var) << 32));
        splitmix(a ^ (u64::from(self.ctl) | (u64::from(self.env) << 32)))
    }
}

/// The visited-state index: an [`IdTable`] of state numbers whose keys,
/// the full 16-byte [`CompactState`]s (collision-free, since interned
/// ids are canonical), live in the explorer's state list.
pub(super) struct Dedup(IdTable);

impl Dedup {
    pub fn new() -> Self {
        Dedup(IdTable::new())
    }

    /// The number of the stored state equal to `cs`, or where to record
    /// it.
    #[inline]
    pub fn find(&self, states: &[CompactState], cs: CompactState) -> Result<u32, Vacant> {
        self.0
            .find(cs.fingerprint(), |id| states[id as usize] == cs)
    }

    /// Records state `id`, already pushed onto `states`, where `find`
    /// missed.
    #[inline]
    pub fn insert(&mut self, states: &[CompactState], at: Vacant, id: u32) {
        self.0
            .insert(at, id, |id| states[id as usize].fingerprint());
    }
}
