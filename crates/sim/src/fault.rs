//! Fault injection: deterministic schedules of signal-level faults.
//!
//! A [`FaultPlan`] names bus signals (by their declared name, so plans can
//! be written before refinement assigns ids) and attaches [`FaultKind`]s
//! to them. The kernel applies the plan in the signal-update phase:
//!
//! * [`FaultKind::StuckAt`] — during the active window every process
//!   write to the signal is discarded, and at the window start the signal
//!   is forced to the stuck value;
//! * [`FaultKind::FlipBit`] — a one-shot transient: at the given time the
//!   named bit of the signal's current value inverts;
//! * [`FaultKind::DelayWrites`] — writes landing inside the window take
//!   effect `cycles` later instead of immediately;
//! * [`FaultKind::DropWrites`] — writes landing inside the window are
//!   silently discarded (the value already on the wire persists).
//!
//! Every applied fault is recorded as an [`InjectedFault`] in the
//! [`crate::SimReport`], so campaigns can correlate observed failures
//! with the exact injections that caused them.

use ifsyn_spec::rng::SplitMix64;
use ifsyn_spec::Value;

/// What a fault does to its signal.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Force the signal to `value` at `from`; discard all writes while
    /// the window is active (`until` = `None` means forever).
    StuckAt {
        /// The forced value.
        value: Value,
        /// Window start (inclusive), in clock cycles.
        from: u64,
        /// Window end (exclusive); `None` keeps the fault active forever.
        until: Option<u64>,
    },
    /// Invert bit `bit` of the signal's current value at time `at`
    /// (a single-event transient).
    FlipBit {
        /// Bit position (0 = LSB). For `Ty::Bit` signals use 0.
        bit: u32,
        /// Injection time in clock cycles.
        at: u64,
    },
    /// Writes taking effect inside the window land `cycles` later.
    DelayWrites {
        /// Added delay in clock cycles; a plan that delays by 0 is
        /// refused.
        cycles: u64,
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive); `None` = forever.
        until: Option<u64>,
    },
    /// Writes taking effect inside the window are discarded.
    DropWrites {
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive); `None` = forever.
        until: Option<u64>,
    },
}

impl FaultKind {
    /// The interference window `[from, until)` of a windowed fault
    /// (`until` = `None`: forever); `None` for a flip.
    pub(crate) fn window(&self) -> Option<(u64, Option<u64>)> {
        match self {
            FaultKind::StuckAt { from, until, .. }
            | FaultKind::DelayWrites { from, until, .. }
            | FaultKind::DropWrites { from, until } => Some((*from, *until)),
            FaultKind::FlipBit { .. } => None,
        }
    }

    /// `true` when a write applied at `time` falls in this fault's
    /// interference window.
    pub(crate) fn window_contains(&self, time: u64) -> bool {
        self.window()
            .is_some_and(|(from, until)| time >= from && until.is_none_or(|u| time < u))
    }
}

/// One fault on one named signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Name of the signal (as declared in the system).
    pub signal: String,
    /// What happens to it.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults.
///
/// The default plan is empty (no faults); an empty plan adds no
/// per-write work to the kernel's hot path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a stuck-at-0 fault on a bit signal over `[from, until)`.
    pub fn stuck_at_0(mut self, signal: impl Into<String>, from: u64, until: Option<u64>) -> Self {
        self.faults.push(Fault {
            signal: signal.into(),
            kind: FaultKind::StuckAt {
                value: Value::Bit(false),
                from,
                until,
            },
        });
        self
    }

    /// Adds a stuck-at-1 fault on a bit signal over `[from, until)`.
    pub fn stuck_at_1(mut self, signal: impl Into<String>, from: u64, until: Option<u64>) -> Self {
        self.faults.push(Fault {
            signal: signal.into(),
            kind: FaultKind::StuckAt {
                value: Value::Bit(true),
                from,
                until,
            },
        });
        self
    }

    /// Adds a one-shot bit flip at time `at`.
    pub fn flip_bit(mut self, signal: impl Into<String>, bit: u32, at: u64) -> Self {
        self.faults.push(Fault {
            signal: signal.into(),
            kind: FaultKind::FlipBit { bit, at },
        });
        self
    }

    /// Adds a write-delay fault over `[from, until)`.
    pub fn delay_writes(
        mut self,
        signal: impl Into<String>,
        cycles: u64,
        from: u64,
        until: Option<u64>,
    ) -> Self {
        self.faults.push(Fault {
            signal: signal.into(),
            kind: FaultKind::DelayWrites {
                cycles,
                from,
                until,
            },
        });
        self
    }

    /// Adds a write-drop fault over `[from, until)`.
    pub fn drop_writes(mut self, signal: impl Into<String>, from: u64, until: Option<u64>) -> Self {
        self.faults.push(Fault {
            signal: signal.into(),
            kind: FaultKind::DropWrites { from, until },
        });
        self
    }

    /// Adds `count` seeded transient single-bit flips on `signal`,
    /// uniformly over `[window_from, window_to)` and over bit positions
    /// `0..bit_width`. Equal seeds give equal schedules, so campaigns are
    /// reproducible by construction.
    pub fn seeded_flips(
        mut self,
        signal: impl Into<String>,
        bit_width: u32,
        count: usize,
        window_from: u64,
        window_to: u64,
        seed: u64,
    ) -> Self {
        let name = signal.into();
        let mut rng = SplitMix64::new(seed);
        for _ in 0..count {
            let at = if window_to > window_from {
                window_from + rng.below(window_to - window_from)
            } else {
                window_from
            };
            let bit = rng.below(u64::from(bit_width.max(1))) as u32;
            self.faults.push(Fault {
                signal: name.clone(),
                kind: FaultKind::FlipBit { bit, at },
            });
        }
        self
    }
}

/// One fault the kernel actually applied, as recorded in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedFault {
    /// Time of the injection.
    pub time: u64,
    /// Name of the affected signal.
    pub signal: String,
    /// What happened (`"forced stuck value"`, `"write dropped"`, ...).
    pub effect: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let k = FaultKind::DropWrites {
            from: 5,
            until: Some(9),
        };
        assert!(!k.window_contains(4));
        assert!(k.window_contains(5));
        assert!(k.window_contains(8));
        assert!(!k.window_contains(9));
    }

    #[test]
    fn open_window_is_forever() {
        let k = FaultKind::StuckAt {
            value: Value::Bit(false),
            from: 2,
            until: None,
        };
        assert!(!k.window_contains(0));
        assert!(k.window_contains(u64::MAX));
    }

    #[test]
    fn seeded_flips_are_reproducible() {
        let a = FaultPlan::new().seeded_flips("D", 8, 4, 10, 50, 7);
        let b = FaultPlan::new().seeded_flips("D", 8, 4, 10, 50, 7);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 4);
        for f in &a.faults {
            match f.kind {
                FaultKind::FlipBit { bit, at } => {
                    assert!(bit < 8);
                    assert!((10..50).contains(&at));
                }
                ref other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn builders_accumulate() {
        let p = FaultPlan::new()
            .stuck_at_0("DONE", 0, None)
            .flip_bit("DATA", 3, 17)
            .delay_writes("START", 2, 5, Some(50))
            .drop_writes("DONE", 1, Some(2));
        assert_eq!(p.faults.len(), 4);
        assert!(!p.is_empty());
        assert!(FaultPlan::new().is_empty());
    }
}
