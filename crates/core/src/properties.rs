//! The bus property catalog: what protocol generation promises about the
//! wires it creates, checked on every schedule.
//!
//! Protocol generation creates an arbiter's request and grant lines and,
//! for hardened protocols, sticky per-channel status flags. The catalog
//! states the refined bus's properties over exactly those wires and
//! checks them on an explored [`StateSpace`] of the refined system:
//!
//! * `gnt_mutex` — **safety invariant**, only with an arbiter: at most
//!   one grant line is high in every reachable state;
//! * the **terminal property** — every quiescent state has every process
//!   finished or a status flag raised (`completes_or_flags`); given a
//!   delivery predicate, every finished state must also have delivered
//!   its data (`delivers_or_flags`);
//! * `eventual_grant` — **liveness**, one per arbiter client, only when
//!   the exploration ran without an environment fault: from every state
//!   with the client's request pending and not granted, some
//!   continuation grants it (`AG(REQ ∧ ¬GNT → EF GNT)`).

use ifsyn_sim::{PropertyReport, StateSpace, StateView};

use crate::RefinedSystem;

/// One checked property of the bus catalog.
#[derive(Debug, Clone)]
pub struct BusCheck {
    /// The catalog property: `gnt_mutex`, `completes_or_flags`,
    /// `delivers_or_flags` or `eventual_grant`.
    pub property: &'static str,
    /// The request line of the arbiter client an `eventual_grant` check
    /// is about.
    pub request: Option<String>,
    /// The checker's report, named `eventual_grant[REQ]` for a client's
    /// liveness check and after the property otherwise.
    pub report: PropertyReport,
}

impl RefinedSystem {
    /// Checks the bus property catalog on `space`, an exploration of
    /// this refined system, in catalog order: `gnt_mutex` (with an
    /// arbiter), the terminal property, then each client's
    /// `eventual_grant` (with an arbiter, fault-free).
    ///
    /// Without `delivered` the terminal property is `completes_or_flags`;
    /// with it, `delivers_or_flags` also requires `delivered` of every
    /// finished quiescent state.
    pub fn check_bus_properties(
        &self,
        space: &StateSpace<'_>,
        delivered: Option<&dyn Fn(&StateView<'_>) -> bool>,
    ) -> Vec<BusCheck> {
        let name = |s| self.system.signal(s).name.clone();
        let arbiter = self.bus.arbiter.as_ref();
        let grants: Vec<String> = arbiter
            .iter()
            .flat_map(|a| &a.gnt)
            .map(|&g| name(g))
            .collect();
        let flags: Vec<String> = self
            .bus
            .status_flags
            .iter()
            .map(|&(_, s)| name(s))
            .collect();
        let mut checks = Vec::new();
        if arbiter.is_some() {
            let report = space.check_invariant("gnt_mutex", |v| {
                grants.iter().filter(|g| v.signal_high(g)).count() <= 1
            });
            checks.push(BusCheck {
                property: "gnt_mutex",
                request: None,
                report,
            });
        }
        let property = match delivered {
            None => "completes_or_flags",
            Some(_) => "delivers_or_flags",
        };
        let report = space.check_terminal(property, |v| {
            (v.all_done() && delivered.is_none_or(|d| d(v)))
                || flags.iter().any(|f| v.signal_high(f))
        });
        checks.push(BusCheck {
            property,
            request: None,
            report,
        });
        if space.fault_free() {
            for (&rq, gn) in arbiter.iter().flat_map(|a| &a.req).zip(&grants) {
                let rq = name(rq);
                let report = space.check_leads_to(
                    &format!("eventual_grant[{rq}]"),
                    |v| v.signal_high(&rq) && !v.signal_high(gn),
                    |v| v.signal_high(gn),
                );
                checks.push(BusCheck {
                    property: "eventual_grant",
                    request: Some(rq),
                    report,
                });
            }
        }
        checks
    }
}
