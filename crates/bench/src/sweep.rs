//! A dependency-free parallel sweep driver.
//!
//! The evaluation sweeps (Fig. 7 widths, ablation configurations) run
//! many completely independent refine-and-simulate jobs; this module
//! fans them out over `std::thread::scope` workers. Each worker builds
//! its own [`ifsyn_sim::Simulator`] inside the thread, so the only
//! shared state is the read-only input slice and one atomic work index.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads the sweep driver uses: one per available core.
pub(crate) fn sweep_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item, fanning out over all available cores, and
/// returns the results in input order.
///
/// Falls back to a plain serial map for single-core machines or
/// single-item sweeps, so results (and panics) are identical either way.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn parallel_sweep<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_sweep_with(sweep_threads(), items, f)
}

/// [`parallel_sweep`] with an explicit worker count, for callers (the
/// batch runner) that manage their own `--jobs` setting.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn parallel_sweep_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, U)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut acc = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        acc.push((i, f(item)));
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut out: Vec<Option<U>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, v) in chunks.into_iter().flatten() {
        out[i] = Some(v);
    }
    out.into_iter()
        .map(|v| v.expect("every index visited exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let squares = parallel_sweep(&items, |&x| x * x);
        assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(parallel_sweep(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(parallel_sweep(&[7], |&x| x + 1), vec![8]);
    }

    /// The kernel must stay `Send` (shared code blocks are `Arc`, not
    /// `Rc`) or the sweep driver cannot build simulators inside workers.
    #[test]
    fn simulator_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ifsyn_sim::Simulator<'static>>();
    }

    #[test]
    fn simulators_run_inside_worker_threads() {
        use ifsyn_sim::Simulator;
        use ifsyn_spec::{dsl::*, System, Ty};
        let widths: Vec<u32> = (1..=8).collect();
        let times = parallel_sweep(&widths, |&w| {
            let mut sys = System::new("t");
            let m = sys.add_module("chip");
            let b = sys.add_behavior("P", m);
            let x = sys.add_variable("x", Ty::Int(16), b);
            sys.behavior_mut(b).body = vec![
                assign(var(x), int_const(i64::from(w), 16)),
                ifsyn_spec::Stmt::compute(u64::from(w), "w"),
            ];
            Simulator::new(&sys)
                .expect("setup")
                .run_to_quiescence()
                .expect("sim")
                .finish_time(b)
                .expect("finished")
        });
        let expected: Vec<u64> = widths.iter().map(|&w| 1 + u64::from(w)).collect();
        assert_eq!(times, expected);
    }
}
