//! The statement cost model shared by estimation and simulation.

/// Clock-cycle costs of IR statements.
///
/// One instance of this model is the single source of truth for "how many
/// clocks does a statement take": the analytic estimator walks statement
/// trees with it, and the simulator lowers statements to instructions
/// carrying these costs. A statement's explicit `cost` field, when set,
/// overrides the model (protocol generation uses that to price handshake
/// edges).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Cycles per variable assignment (`:=`).
    pub assign_cycles: u32,
    /// Cycles per signal assignment (`<=`).
    pub signal_assign_cycles: u32,
    /// Cycles per *abstract* channel access (the ideal, pre-refinement
    /// channel: a rendezvous that always succeeds immediately).
    pub abstract_channel_cycles: u32,
}

impl CostModel {
    /// The default model: single-cycle assignments, free control flow.
    ///
    /// This mirrors a simple datapath where every register transfer takes
    /// one controller state and branching is folded into state selection —
    /// the granularity the paper's Fig. 7 clock counts imply.
    pub const fn new() -> Self {
        Self {
            assign_cycles: 1,
            signal_assign_cycles: 1,
            abstract_channel_cycles: 1,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_new() {
        assert_eq!(CostModel::new(), CostModel::default());
    }

    #[test]
    fn default_is_single_cycle_assignments() {
        let m = CostModel::new();
        assert_eq!(m.assign_cycles, 1);
        assert_eq!(m.signal_assign_cycles, 1);
    }
}
