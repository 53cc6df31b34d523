//! The one parallel sweep runner every experiment grid goes through.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `cell` on every entry of `grid` using up to `jobs` worker threads
/// and returns the results in grid order.
///
/// Workers pull the next unclaimed cell off a shared counter, so the
/// assignment of cells to workers depends on timing. Each worker calls
/// `init` once, before its first cell, and passes that state to every
/// cell it runs: a sweep can keep a reusable resource per worker (the
/// figure sweep's rewindable database fork), or pass `|| ()` when each
/// cell builds everything itself. Results are bit-identical for any
/// `jobs` as long as `cell` leaves the state as it found it.
///
/// With `jobs <= 1`, or a single cell, everything runs inline on the
/// calling thread and nothing is spawned. An empty grid returns an empty
/// `Vec` without calling `init`. A panicking cell propagates its panic to
/// the caller once every worker has stopped.
pub fn par_grid<C, S, R>(
    jobs: usize,
    grid: &[C],
    init: impl Fn() -> S + Sync,
    cell: impl Fn(&mut S, &C) -> R + Sync,
) -> Vec<R>
where
    C: Sync,
    R: Send,
{
    if grid.is_empty() {
        return Vec::new();
    }
    let workers = jobs.min(grid.len());
    if workers <= 1 {
        let mut state = init();
        return grid.iter().map(|c| cell(&mut state, c)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = grid.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(c) = grid.get(i) else { break };
                        done.push((i, cell(&mut state, c)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            let done = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every grid cell ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_grid_order_for_any_job_count() {
        let grid: Vec<u64> = (0..23).collect();
        let expect: Vec<u64> = grid.iter().map(|x| x * x + 1).collect();
        for jobs in [0, 1, 2, 4, 64] {
            let got = par_grid(jobs, &grid, || (), |(), &x| x * x + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_grid_returns_empty_without_init() {
        let inits = AtomicUsize::new(0);
        for jobs in [1, 4] {
            let got: Vec<u8> = par_grid(
                jobs,
                &[] as &[u8],
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |(), &x| x,
            );
            assert!(got.is_empty());
        }
        assert_eq!(inits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn init_runs_at_most_once_per_worker_and_state_is_reused() {
        let grid: Vec<usize> = (0..40).collect();
        for jobs in [1, 2, 4, 100] {
            let inits = AtomicUsize::new(0);
            // State: (worker id, cells this worker has run so far).
            let out = par_grid(
                jobs,
                &grid,
                || (inits.fetch_add(1, Ordering::Relaxed), 0usize),
                |(worker, seen), &i| {
                    *seen += 1;
                    (i, *worker, *seen)
                },
            );
            let workers = inits.load(Ordering::Relaxed);
            assert!(workers >= 1 && workers <= jobs.clamp(1, grid.len()), "jobs={jobs}");
            assert_eq!(out.iter().map(|r| r.0).collect::<Vec<_>>(), grid);
            // Each worker's counter climbed 1, 2, …, k across its cells:
            // one state per worker, carried from cell to cell.
            for w in 0..workers {
                let mut seen: Vec<usize> = out.iter().filter(|r| r.1 == w).map(|r| r.2).collect();
                seen.sort_unstable();
                assert_eq!(seen, (1..=seen.len()).collect::<Vec<_>>(), "jobs={jobs} worker={w}");
            }
        }
    }

    #[test]
    fn one_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = par_grid(1, &[(); 5], || (), |(), ()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }
}
