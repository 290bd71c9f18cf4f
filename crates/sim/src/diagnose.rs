//! Structured deadlock diagnosis.
//!
//! When a run ends with processes suspended on waits that can never be
//! satisfied, a bare "timeout" or a silently quiescent report hides the
//! actual failure. The diagnosis records, per blocked process, the wait
//! it is suspended on and the signal values it observed, and detects
//! wait-for cycles (process A waits on a signal only process B writes,
//! and vice versa — the classic handshake deadlock shape).

use std::fmt;

use ifsyn_spec::{Expr, System, Value};

use crate::exec::{Cond, Slot};
use crate::program::{Program, WaitSpec};

/// One blocked process and what it is waiting for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedWait {
    /// Name of the blocked behavior.
    pub behavior: String,
    /// Human-readable form of the wait it is suspended on
    /// (e.g. `wait until B_DONE = '1'`).
    pub wait: String,
    /// `(signal name, current value)` for every signal in the wait's
    /// sensitivity list, as observed when the diagnosis was taken.
    pub observed: Vec<(String, String)>,
}

impl fmt::Display for BlockedWait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` suspended on {}", self.behavior, self.wait)?;
        if !self.observed.is_empty() {
            let vals: Vec<String> = self
                .observed
                .iter()
                .map(|(n, v)| format!("{n} = {v}"))
                .collect();
            write!(f, " (observed {})", vals.join(", "))?;
        }
        Ok(())
    }
}

/// A full deadlock diagnosis: every blocked process plus any wait-for
/// cycles among them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockDiagnosis {
    /// Time at which the diagnosis was taken.
    pub time: u64,
    /// Every process suspended on a wait, servers included.
    pub blocked: Vec<BlockedWait>,
    /// Wait-for cycles among the blocked processes: each entry lists the
    /// behavior names around one cycle (`A -> B -> ... -> A`).
    pub cycles: Vec<Vec<String>>,
}

impl DeadlockDiagnosis {
    /// The blocked entry of a behavior, if it is blocked.
    pub fn blocked_behavior(&self, name: &str) -> Option<&BlockedWait> {
        self.blocked.iter().find(|b| b.behavior == name)
    }

    /// Assembles the diagnosis taken at `time` from the blocked
    /// processes, in pid order: each one's behavior index and the wait
    /// it is blocked on, whose sensitivity signals are reported with
    /// their values in `signals` as observed. `None` when nothing is
    /// blocked.
    pub(crate) fn assemble(
        system: &System,
        program: &Program,
        signals: &[Value],
        time: u64,
        waits: Vec<(usize, &WaitSpec)>,
    ) -> Option<Self> {
        if waits.is_empty() {
            return None;
        }
        // Wait-for edges: blocked A -> blocked B when B's code can write a
        // signal A is sensitive to. With every potential writer of A's
        // wakeup signals itself blocked, the cycle is unbreakable.
        let writes: Vec<Vec<bool>> = waits
            .iter()
            .map(|(b, _)| program.written_signals(*b, system.signals.len()))
            .collect();
        let edges: Vec<Vec<usize>> = waits
            .iter()
            .enumerate()
            .map(|(i, (_, wait))| {
                (0..waits.len())
                    .filter(|&j| j != i && wait.sensitivity().iter().any(|s| writes[j][s.index()]))
                    .collect()
            })
            .collect();
        let cycles = find_cycles(waits.len(), &edges)
            .into_iter()
            .map(|cycle| {
                cycle
                    .into_iter()
                    .map(|i| system.behaviors[waits[i].0].name.clone())
                    .collect()
            })
            .collect();
        let blocked = waits
            .into_iter()
            .map(|(b, wait)| BlockedWait {
                behavior: system.behaviors[b].name.clone(),
                wait: render_wait(system, wait),
                observed: wait
                    .sensitivity()
                    .iter()
                    .map(|&s| {
                        (
                            system.signal(s).name.clone(),
                            signals[s.index()].to_string(),
                        )
                    })
                    .collect(),
            })
            .collect();
        Some(Self {
            time,
            blocked,
            cycles,
        })
    }
}

impl fmt::Display for DeadlockDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "deadlock at t = {}:", self.time)?;
        for b in &self.blocked {
            writeln!(f, "  {b}")?;
        }
        for cycle in &self.cycles {
            writeln!(f, "  wait-for cycle: {}", cycle.join(" -> "))?;
        }
        Ok(())
    }
}

/// Renders a wait for diagnosis messages, e.g. `wait until B_DONE = '1'`
/// or `wait on REQ, ACK`.
fn render_wait(system: &System, wait: &WaitSpec) -> String {
    match wait {
        WaitSpec::ForCycles(n) => format!("wait for {n}"),
        WaitSpec::OnSignals(list) => {
            let names: Vec<&str> = list
                .iter()
                .map(|s| system.signal(*s).name.as_str())
                .collect();
            format!("wait on {}", names.join(", "))
        }
        WaitSpec::Until(until) | WaitSpec::UntilTimeout { until, .. } => {
            let cond = match (until.display(), &until.cond) {
                (Some(display), _) => render_expr(system, display),
                // The handshake idiom keeps no source: it renders with
                // its constant coerced to the signal's type.
                (
                    None,
                    Cond::Is {
                        slot: Slot::Signal(s),
                        value,
                    },
                ) => format!("{} = {value}", system.signal(*s).name),
                (None, _) => "<expr>".to_string(),
            };
            format!("wait until {cond}")
        }
    }
}

/// Renders a wait condition compactly for diagnosis messages: signal
/// names, literal values and operators; structural forms fall back to a
/// placeholder rather than a full printout.
fn render_expr(system: &System, expr: &Expr) -> String {
    match expr {
        Expr::Signal(s) => system.signal(*s).name.clone(),
        Expr::Const(v) => v.to_string(),
        Expr::Unary { op, arg } => format!("{op} {}", render_expr(system, arg)),
        Expr::Binary { op, lhs, rhs } => format!(
            "{} {op} {}",
            render_expr(system, lhs),
            render_expr(system, rhs)
        ),
        _ => "<expr>".to_string(),
    }
}

/// Finds elementary cycles in a wait-for graph given as adjacency lists
/// (`edges[i]` = processes that `i` waits for). Returns each cycle once,
/// as the list of node indices in cycle order.
///
/// The graphs here are tiny (blocked processes of one simulation), so a
/// simple DFS with a recursion stack suffices.
fn find_cycles(n: usize, edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut cycles: Vec<Vec<usize>> = Vec::new();
    let mut color = vec![0u8; n]; // 0 = white, 1 = on stack, 2 = done
    let mut stack: Vec<usize> = Vec::new();

    fn dfs(
        v: usize,
        edges: &[Vec<usize>],
        color: &mut [u8],
        stack: &mut Vec<usize>,
        cycles: &mut Vec<Vec<usize>>,
    ) {
        color[v] = 1;
        stack.push(v);
        for &w in &edges[v] {
            if color[w] == 0 {
                dfs(w, edges, color, stack, cycles);
            } else if color[w] == 1 {
                // Found a back edge: the cycle is the stack suffix from w.
                let pos = stack.iter().position(|&x| x == w).expect("on stack");
                let cyc: Vec<usize> = stack[pos..].to_vec();
                // Report each cycle once, keyed by its smallest rotation.
                let canonical = canonical_rotation(&cyc);
                if !cycles.iter().any(|c| canonical_rotation(c) == canonical) {
                    cycles.push(cyc);
                }
            }
        }
        stack.pop();
        color[v] = 2;
    }

    for v in 0..n {
        if color[v] == 0 {
            dfs(v, edges, &mut color, &mut stack, &mut cycles);
        }
    }
    cycles
}

/// Rotates a cycle so its smallest element comes first (canonical form
/// for deduplication).
fn canonical_rotation(cycle: &[usize]) -> Vec<usize> {
    if cycle.is_empty() {
        return Vec::new();
    }
    let min_pos = cycle
        .iter()
        .enumerate()
        .min_by_key(|&(_, &v)| v)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out = Vec::with_capacity(cycle.len());
    out.extend_from_slice(&cycle[min_pos..]);
    out.extend_from_slice(&cycle[..min_pos]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_node_cycle_found() {
        // 0 waits for 1, 1 waits for 0.
        let cycles = find_cycles(2, &[vec![1], vec![0]]);
        assert_eq!(cycles.len(), 1);
        assert_eq!(canonical_rotation(&cycles[0]), vec![0, 1]);
    }

    #[test]
    fn self_loop_found() {
        let cycles = find_cycles(1, &[vec![0]]);
        assert_eq!(cycles, vec![vec![0]]);
    }

    #[test]
    fn acyclic_graph_has_no_cycles() {
        let cycles = find_cycles(3, &[vec![1], vec![2], vec![]]);
        assert!(cycles.is_empty());
    }

    #[test]
    fn duplicate_cycles_are_reported_once() {
        // Two entry points into the same 2-cycle.
        let cycles = find_cycles(3, &[vec![1], vec![2], vec![1]]);
        assert_eq!(cycles.len(), 1);
    }

    #[test]
    fn disjoint_cycles_are_both_found() {
        // 0 <-> 1 and 2 -> 3 -> 4 -> 2, connected only by a stray edge
        // out of the first cycle.
        let cycles = find_cycles(5, &[vec![1], vec![0, 2], vec![3], vec![4], vec![2]]);
        let canon: Vec<Vec<usize>> = cycles.iter().map(|c| canonical_rotation(c)).collect();
        assert_eq!(cycles.len(), 2, "{canon:?}");
        assert!(canon.contains(&vec![0, 1]), "{canon:?}");
        assert!(canon.contains(&vec![2, 3, 4]), "{canon:?}");
    }

    #[test]
    fn overlapping_cycles_through_a_shared_node_are_distinct() {
        // Figure-eight: 0 -> 1 -> 0 and 0 -> 2 -> 0 share node 0. Both
        // are elementary cycles and must be reported separately (the
        // simulator prints one `wait-for cycle:` line per cycle).
        let cycles = find_cycles(3, &[vec![1, 2], vec![0], vec![0]]);
        let canon: Vec<Vec<usize>> = cycles.iter().map(|c| canonical_rotation(c)).collect();
        assert_eq!(cycles.len(), 2, "{canon:?}");
        assert!(canon.contains(&vec![0, 1]), "{canon:?}");
        assert!(canon.contains(&vec![0, 2]), "{canon:?}");
    }

    #[test]
    fn self_wait_coexists_with_a_longer_cycle() {
        // Node 1 waits on itself (a process whose wakeup signal only its
        // own code writes) while also sitting on a 2-cycle with node 0.
        let cycles = find_cycles(2, &[vec![1], vec![0, 1]]);
        let canon: Vec<Vec<usize>> = cycles.iter().map(|c| canonical_rotation(c)).collect();
        assert_eq!(cycles.len(), 2, "{canon:?}");
        assert!(canon.contains(&vec![1]), "self-wait missing: {canon:?}");
        assert!(canon.contains(&vec![0, 1]), "{canon:?}");
    }

    #[test]
    fn chorded_cycle_reports_both_elementary_cycles() {
        // 0 -> 1 -> 2 -> 0 with a chord 1 -> 0: the chord closes a second
        // elementary cycle [0, 1] inside the triangle.
        let cycles = find_cycles(3, &[vec![1], vec![2, 0], vec![0]]);
        let canon: Vec<Vec<usize>> = cycles.iter().map(|c| canonical_rotation(c)).collect();
        assert_eq!(cycles.len(), 2, "{canon:?}");
        assert!(canon.contains(&vec![0, 1, 2]), "{canon:?}");
        assert!(canon.contains(&vec![0, 1]), "{canon:?}");
    }

    #[test]
    fn display_names_the_blocked_process() {
        let d = DeadlockDiagnosis {
            time: 42,
            blocked: vec![BlockedWait {
                behavior: "CONV_R2".into(),
                wait: "wait until B_DONE = '1'".into(),
                observed: vec![("B_DONE".into(), "'0'".into())],
            }],
            cycles: vec![vec!["CONV_R2".into(), "trru2proc".into()]],
        };
        let s = d.to_string();
        assert!(s.contains("CONV_R2"));
        assert!(s.contains("B_DONE = '0'"));
        assert!(s.contains("wait-for cycle"));
    }
}
