//! Op bookkeeping shared by the workloads: attempted and failed counts,
//! and the physical-work guard that no two ops of a run are the same.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Identity of one op: what a cache or memo table could key it by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OpKey {
    /// Hash of the op's input (spec text or generated system).
    pub input: u64,
    /// Bus width of the design point (0 where the input fixes it).
    pub width: u32,
    /// Protocol options and, for checks, the fault environment.
    pub options: String,
}

/// A stable (unkeyed) hash, equal for equal inputs within a run.
pub fn hash_of(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Failure messages printed to stderr at most.
const MAX_NOTES: usize = 20;

/// Attempted and failed ops of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops started.
    pub attempted: u64,
    /// Ops that errored, mismatched a reference, or repeated an earlier op.
    pub failed: u64,
    seen: HashSet<OpKey>,
    notes: Vec<String>,
}

impl Tally {
    /// Starts an op. Returns `false`, and counts the op as failed, when an
    /// equal op already ran in this run: its result could be a cache hit,
    /// not physical work.
    pub fn begin(&mut self, key: OpKey) -> bool {
        self.attempted += 1;
        if self.seen.contains(&key) {
            self.fail(format!("duplicate op {key:?}"));
            return false;
        }
        self.seen.insert(key);
        true
    }

    /// Counts one failed op.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }

    /// Counts the op as failed when verification returned an error.
    pub fn record(&mut self, verdict: Result<(), String>) {
        if let Err(note) = verdict {
            self.fail(note);
        }
    }

    /// The first failure messages.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(width: u32) -> OpKey {
        OpKey {
            input: hash_of(&"system fig3;"),
            width,
            options: "plain".into(),
        }
    }

    #[test]
    fn guard_trips_on_a_duplicated_point() {
        let mut t = Tally::default();
        assert!(t.begin(key(8)));
        assert!(t.begin(key(9)));
        assert!(!t.begin(key(8)), "a repeated point must not count as work");
        assert_eq!((t.attempted, t.failed), (3, 1));
    }
}
