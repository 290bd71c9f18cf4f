//! Per-process runtime state: frames, statuses, resolved places.

use ifsyn_spec::{Ty, Value};

/// Which code block a frame executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CodeRef {
    /// A behavior body, by behavior index.
    Behavior(usize),
    /// A procedure body, by procedure index.
    Procedure(usize),
}

/// One step of navigation from a storage root to a sub-location.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Step {
    /// Array element.
    Elem(usize),
    /// Bit slice `hi downto lo`.
    Slice(u32, u32),
}

/// The root storage of a resolved place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Root {
    /// System variable, by index.
    Var(usize),
    /// Local slot of a specific frame of the owning process.
    Local {
        /// Absolute frame index within the process's frame stack.
        frame: usize,
        /// Slot index.
        slot: usize,
    },
}

/// A place with all index expressions evaluated to concrete values.
///
/// Used for `out` / `inout` copy-back: VHDL evaluates the target name once
/// at the call, so the indices are captured at call time even though the
/// write happens at return.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ResolvedPlace {
    pub root: Root,
    pub steps: Vec<Step>,
}

/// A call frame.
// The hand-written `PartialEq` below compares exactly the fields the
// derived `Hash` hashes, so equal frames still hash equally.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Debug, Hash)]
pub(crate) struct Frame {
    /// The code block being executed.
    pub code: CodeRef,
    /// Next instruction index.
    pub pc: usize,
    /// Parameter and local storage (parameters first).
    pub locals: Vec<Value>,
    /// Stack of active `for`-loop bounds (innermost last).
    pub loop_bounds: Vec<i64>,
    /// `(slot, destination, destination type)` copy-backs performed on
    /// return; the value is coerced to the destination's type exactly as
    /// an ordinary assignment would be.
    pub copyback: Vec<(usize, ResolvedPlace, Ty)>,
}

impl Frame {
    /// Creates a frame at the start of a code block.
    pub fn new(code: CodeRef, locals: Vec<Value>) -> Self {
        Self {
            code,
            pc: 0,
            locals,
            loop_bounds: Vec::new(),
            copyback: Vec::new(),
        }
    }
}

/// Written by hand for `loop_bounds`: slice `==` on `i64`s compiles to
/// a libc `memcmp` call, and `loop_bounds` is empty and unallocated in
/// almost every frame, so the call gets a dangling page-0 pointer with
/// length 0. On a 2-vCPU Xeon VM that call measured ~137 ns against
/// ~3 ns for an element-wise compare, and frame compares sit on every
/// model-checker transition's diff and intern path.
impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        self.code == other.code
            && self.pc == other.pc
            && self.locals == other.locals
            && self.loop_bounds.iter().eq(&other.loop_bounds)
            && self.copyback == other.copyback
    }
}

impl Eq for Frame {}

impl Clone for Frame {
    fn clone(&self) -> Self {
        Self {
            code: self.code,
            pc: self.pc,
            locals: self.locals.clone(),
            loop_bounds: self.loop_bounds.clone(),
            copyback: self.copyback.clone(),
        }
    }

    /// Buffer-reusing copy: the model checker's scratch state rebuilds
    /// its processes once per explored state and rolls them back after
    /// every run, so keeping the `Vec` spines alive is the difference
    /// between an allocation-free hot loop and three allocations per
    /// transition.
    fn clone_from(&mut self, src: &Self) {
        self.code = src.code;
        self.pc = src.pc;
        self.locals.clone_from(&src.locals);
        self.loop_bounds.clone_from(&src.loop_bounds);
        self.copyback.clone_from(&src.copyback);
    }
}

/// Scheduler status of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Runnable now.
    Ready,
    /// Suspended on a wait statement; the wait is the instruction before
    /// the process's pc.
    Waiting,
    /// Suspended until a scheduled wake-up time.
    Sleeping,
    /// Terminated (non-repeating behavior finished its body).
    Finished,
}

/// Runtime state of one behavior instance.
#[derive(Debug)]
pub(crate) struct Process {
    /// Index of the behavior in the system.
    pub behavior: usize,
    /// Call stack; empty only transiently during return handling.
    pub frames: Vec<Frame>,
    /// Scheduler status.
    pub status: Status,
    /// Monotonic wait-registration counter. Each `register_wait`
    /// increments it, so a `(pid, wait_gen)` pair identifies one specific
    /// suspension — watchdog heap entries carry the pair and are skipped
    /// as stale when the process has since been woken or re-suspended.
    pub wait_gen: u64,
    /// Time the behavior finished (non-repeating behaviors only).
    pub finish_time: Option<u64>,
    /// Completed body iterations (repeating behaviors).
    pub iterations: u64,
    /// Clock cycles consumed by costed instructions.
    pub active_cycles: u64,
    /// Total instructions executed (all costs).
    pub instrs_executed: u64,
}

impl Process {
    /// Creates a ready process at the start of its behavior body.
    pub fn new(behavior: usize) -> Self {
        Self {
            behavior,
            frames: vec![Frame::new(CodeRef::Behavior(behavior), Vec::new())],
            status: Status::Ready,
            wait_gen: 0,
            finish_time: None,
            iterations: 0,
            active_cycles: 0,
            instrs_executed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_process_is_ready_at_pc_zero() {
        let p = Process::new(3);
        assert_eq!(p.status, Status::Ready);
        assert_eq!(p.frames.len(), 1);
        assert_eq!(p.frames[0].pc, 0);
        assert_eq!(p.frames[0].code, CodeRef::Behavior(3));
    }

    #[test]
    fn frame_starts_clean() {
        let f = Frame::new(CodeRef::Procedure(1), vec![Value::Bit(false)]);
        assert!(f.loop_bounds.is_empty());
        assert!(f.copyback.is_empty());
        assert_eq!(f.locals.len(), 1);
    }
}
