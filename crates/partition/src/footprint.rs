//! Static per-behavior footprints over the specification IR.
//!
//! The model checker's partial-order reduction asks, per behavior,
//! *which storage can this behavior touch?* It needs two answers: the
//! variables a behavior can access (a variable no other behavior can
//! reach is private) and the signals it can drive (a signal no other
//! behavior can drive reads as a constant). A behavior's footprint is
//! computed by walking its statement tree — including every procedure
//! it can call, transitively — and recording both sets.
//!
//! The footprint is deliberately conservative (a superset of the dynamic
//! access set): any storage named anywhere in a reachable statement is
//! included, whether or not the branch executes. That direction is the
//! safe one: the checker's independence analysis may only reduce too
//! little.

use ifsyn_spec::{Arg, Expr, Place, Stmt, System, WaitCond};

/// One behavior's static access footprint, both sets indexed by
/// declaration order (`vars` by variable index, `sig_writes` by signal
/// index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessFootprint {
    /// Variables accessed at all (read or write), including channel
    /// backing variables and procedure `out`/`inout` targets.
    pub vars: Vec<bool>,
    /// Signals the behavior can drive.
    pub sig_writes: Vec<bool>,
}

/// Computes the footprint of one behavior, walking called procedures
/// transitively (each at most once).
pub fn footprint(system: &System, behavior: usize) -> ProcessFootprint {
    let mut f = ProcessFootprint {
        vars: vec![false; system.variables.len()],
        sig_writes: vec![false; system.signals.len()],
    };
    let mut visited = vec![false; system.procedures.len()];
    walk(
        system,
        &system.behaviors[behavior].body,
        &mut f,
        &mut visited,
    );
    f
}

/// Computes every behavior's footprint, in declaration order.
pub fn footprints(system: &System) -> Vec<ProcessFootprint> {
    (0..system.behaviors.len())
        .map(|b| footprint(system, b))
        .collect()
}

fn note_expr(e: &Expr, f: &mut ProcessFootprint) {
    let mut vs = Vec::new();
    e.collect_vars(&mut vs);
    for v in vs {
        f.vars[v.index()] = true;
    }
}

/// Records a place's root variable and every variable its index and
/// dynamic-slice offset expressions read.
fn note_place(p: &Place, f: &mut ProcessFootprint) {
    if let Some(v) = p.root_var() {
        f.vars[v.index()] = true;
    }
    note_place_indices(p, f);
}

fn note_place_indices(p: &Place, f: &mut ProcessFootprint) {
    match p {
        Place::Index { base, index } => {
            note_expr(index, f);
            note_place_indices(base, f);
        }
        Place::Slice { base, .. } => note_place_indices(base, f),
        Place::DynSlice { base, offset, .. } => {
            note_expr(offset, f);
            note_place_indices(base, f);
        }
        Place::Var(_) | Place::Local(_) => {}
    }
}

fn walk(system: &System, body: &[Stmt], f: &mut ProcessFootprint, visited: &mut Vec<bool>) {
    for stmt in body {
        match stmt {
            Stmt::Assign { place, value, .. } => {
                note_place(place, f);
                note_expr(value, f);
            }
            Stmt::SignalAssign { signal, value, .. } => {
                f.sig_writes[signal.index()] = true;
                note_expr(value, f);
            }
            Stmt::If { cond, .. } => note_expr(cond, f),
            Stmt::While { cond, .. } => note_expr(cond, f),
            Stmt::For { var, from, to, .. } => {
                note_place(var, f);
                note_expr(from, f);
                note_expr(to, f);
            }
            Stmt::Wait(cond) => match cond {
                WaitCond::Until(e) | WaitCond::UntilTimeout { cond: e, .. } => note_expr(e, f),
                WaitCond::OnSignals(_) | WaitCond::ForCycles(_) => {}
            },
            Stmt::Call { procedure, args } => {
                for arg in args {
                    match arg {
                        Arg::In(e) => note_expr(e, f),
                        Arg::Out(p) | Arg::InOut(p) => note_place(p, f),
                    }
                }
                let pi = procedure.index();
                if !visited[pi] {
                    visited[pi] = true;
                    walk(system, &system.procedures[pi].body, f, visited);
                }
            }
            Stmt::ChannelSend {
                channel,
                addr,
                data,
            } => {
                f.vars[system.channel(*channel).variable.index()] = true;
                if let Some(a) = addr {
                    note_expr(a, f);
                }
                note_expr(data, f);
            }
            Stmt::ChannelReceive {
                channel,
                addr,
                target,
            } => {
                f.vars[system.channel(*channel).variable.index()] = true;
                if let Some(a) = addr {
                    note_expr(a, f);
                }
                note_place(target, f);
            }
            Stmt::Assert { cond, .. } => note_expr(cond, f),
            Stmt::Compute { .. } | Stmt::Return => {}
        }
        for inner in stmt.bodies() {
            walk(system, inner, f, visited);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsyn_spec::dsl::*;
    use ifsyn_spec::{System, Ty};

    #[test]
    fn footprint_separates_reads_and_writes() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("B", m);
        let x = sys.add_variable("x", Ty::Int(16), b);
        let y = sys.add_variable("y", Ty::Int(16), b);
        let req = sys.add_signal("REQ", Ty::Bit);
        let ack = sys.add_signal("ACK", Ty::Bit);
        sys.behavior_mut(b).body = vec![
            assign(var(x), load(var(y))),
            drive(req, bit_const(true)),
            wait_until(eq(signal(ack), bit_const(true))),
        ];
        let f = footprint(&sys, b.index());
        assert!(f.vars[x.index()] && f.vars[y.index()]);
        assert!(f.sig_writes[req.index()] && !f.sig_writes[ack.index()]);
    }

    #[test]
    fn signal_coupling_ignores_shared_pure_reads() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let s = sys.add_signal("S", Ty::Bit);
        let a = sys.add_behavior("A", m);
        let va = sys.add_variable("va", Ty::Int(8), a);
        sys.behavior_mut(a).body = vec![assign(var(va), signal(s))];
        let b = sys.add_behavior("B", m);
        let vb = sys.add_variable("vb", Ty::Int(8), b);
        sys.behavior_mut(b).body = vec![assign(var(vb), signal(s))];
        let c = sys.add_behavior("C", m);
        sys.behavior_mut(c).body = vec![drive(s, bit_const(true))];
        let feet = footprints(&sys);
        // Reading S makes no behavior a writer of it; only C drives S.
        assert!(!feet[0].sig_writes[s.index()]);
        assert!(!feet[1].sig_writes[s.index()]);
        assert!(feet[2].sig_writes[s.index()]);
        // The two readers share no variable.
        assert!(feet[0].vars[va.index()] && !feet[0].vars[vb.index()]);
        assert!(feet[1].vars[vb.index()] && !feet[1].vars[va.index()]);
    }

    #[test]
    fn procedures_walked_transitively() {
        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let b = sys.add_behavior("B", m);
        let x = sys.add_variable("x", Ty::Int(16), b);
        let gnt = sys.add_signal("GNT", Ty::Bit);
        let mut helper = ifsyn_spec::Procedure::new("helper");
        helper.body = vec![
            drive(gnt, bit_const(true)),
            assign(var(x), int_const(7, 16)),
        ];
        let p = sys.add_procedure(helper);
        sys.behavior_mut(b).body = vec![call(p, vec![])];
        let f = footprint(&sys, b.index());
        assert!(f.sig_writes[gnt.index()]);
        assert!(f.vars[x.index()]);
    }
}
