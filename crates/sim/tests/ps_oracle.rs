//! Oracle test for the processor-sharing resource.
//!
//! [`PsResource`] keeps its jobs in service in a binary heap ordered by
//! virtual finish time, with an arrival sequence number breaking ties. The
//! reference below keeps them in a plain `Vec` and finds the next finisher
//! by a linear scan, with the same virtual-time arithmetic written out
//! once more. Both are driven through the same random enqueue / cancel /
//! advance / pop sequences — with same-instant ties, zero and negative
//! demands, and per-job rate caps — and must agree bit for bit on the
//! completion order, every `next_completion` time, the `active_jobs()`
//! order, the epoch and the cumulative [`PsStats`].

use dynamid_sim::{JobId, PsResource, PsStats, SimDuration, SimTime};
use proptest::prelude::*;

/// Same tolerance as the resource's own completion test.
const COMPLETION_EPS: f64 = 1e-3;

/// Brute-force processor sharing: an unordered list of
/// `(virtual finish, arrival seq, job)` scanned in full for every query.
struct RefPs {
    capacity: f64,
    per_job_cap: f64,
    virt: f64,
    last: SimTime,
    active: Vec<(f64, u64, JobId)>,
    seq: u64,
    epoch: u64,
    stats: PsStats,
}

impl RefPs {
    fn new(capacity: f64, per_job_cap: f64) -> Self {
        RefPs {
            capacity,
            per_job_cap,
            virt: 0.0,
            last: SimTime::ZERO,
            active: Vec::new(),
            seq: 0,
            epoch: 0,
            stats: PsStats::default(),
        }
    }

    fn rate(&self) -> f64 {
        (self.capacity / self.active.len() as f64).min(self.per_job_cap)
    }

    fn advance(&mut self, now: SimTime) {
        let elapsed = now.duration_since(self.last).as_micros() as f64;
        if elapsed > 0.0 && !self.active.is_empty() {
            let per_job = self.rate();
            self.virt += elapsed * per_job;
            let delivered = per_job * self.active.len() as f64;
            self.stats.busy_micros += elapsed * (delivered / self.capacity).min(1.0);
            self.stats.work_done += elapsed * delivered;
        }
        self.last = now;
    }

    /// Index of the job with the smallest `(finish, seq)`.
    fn first(&self) -> Option<usize> {
        (0..self.active.len()).min_by(|&a, &b| {
            let (fa, sa, _) = self.active[a];
            let (fb, sb, _) = self.active[b];
            fa.total_cmp(&fb).then(sa.cmp(&sb))
        })
    }

    fn reset_if_idle(&mut self) {
        if self.active.is_empty() {
            self.virt = 0.0;
        }
    }

    fn enqueue(&mut self, now: SimTime, job: JobId, demand: f64) {
        self.advance(now);
        self.active.push((self.virt + demand.max(0.0), self.seq, job));
        self.seq += 1;
        self.epoch += 1;
        self.stats.arrivals += 1;
    }

    fn cancel(&mut self, now: SimTime, job: JobId) -> bool {
        self.advance(now);
        let Some(i) = self.active.iter().position(|e| e.2 == job) else {
            return false;
        };
        self.active.remove(i);
        self.epoch += 1;
        self.reset_if_idle();
        true
    }

    fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        let (finish, _, _) = self.active[self.first()?];
        let remaining = (finish - self.virt).max(0.0);
        Some(now + SimDuration::from_micros((remaining / self.rate()).ceil() as u64))
    }

    fn pop_completed(&mut self, now: SimTime) -> Vec<JobId> {
        self.advance(now);
        let mut done = Vec::new();
        while let Some(i) = self.first() {
            if self.active[i].0 > self.virt + COMPLETION_EPS {
                break;
            }
            done.push(self.active.remove(i).2);
            self.stats.completions += 1;
        }
        if !done.is_empty() {
            self.epoch += 1;
            self.reset_if_idle();
        }
        done
    }

    fn active_jobs(&self) -> Vec<JobId> {
        let mut sorted = self.active.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        sorted.into_iter().map(|e| e.2).collect()
    }
}

/// Demands drawn from a small set so equal finish tags (ties broken by
/// arrival order) are common, including zero and negative demands.
fn demand(raw: u64) -> f64 {
    match raw % 8 {
        0 => 0.0,
        1 => -5.0,
        2..=4 => 100.0,
        5 => 250.0,
        6 => 33.3,
        _ => (raw % 5_000) as f64,
    }
}

/// Compares everything observable and pops what is due, as the engine does
/// when a completion fires.
fn pop_and_compare(
    r: &mut PsResource,
    o: &mut RefPs,
    now: SimTime,
    buf: &mut Vec<JobId>,
) -> Result<usize, TestCaseError> {
    buf.clear();
    let n = r.pop_completed(now, buf);
    let want = o.pop_completed(now);
    prop_assert_eq!(n, buf.len());
    prop_assert_eq!(&*buf, &want, "completion order diverged at {:?}", now);
    prop_assert_eq!(r.next_completion(now), o.next_completion(now), "next completion");
    Ok(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Each step is `(action, raw)`: enqueue a fresh job (twice as often
    /// as the rest), cancel a live job (or one that already left), advance
    /// the clock popping every completion that falls due on the way, or
    /// pop at the current instant. `shape` picks a 1-core CPU, a 4-core
    /// CPU capped at one core per job, or a NIC one transfer can saturate.
    #[test]
    fn heap_ps_matches_brute_force_reference(
        shape in 0u8..3,
        steps in prop::collection::vec((0u8..5, any::<u64>()), 1..250)
    ) {
        let (capacity, cap) = match shape {
            0 => (1.0, 1.0),
            1 => (4.0, 1.0),
            _ => (12.5, 12.5),
        };
        let mut r = PsResource::with_job_cap("res", capacity, cap);
        let mut o = RefPs::new(capacity, cap);
        let mut now = SimTime::ZERO;
        let mut next_job = 0u64;
        let mut buf = Vec::new();

        for (action, raw) in steps {
            match action {
                0 | 1 => {
                    let job = JobId(next_job);
                    next_job += 1;
                    r.enqueue(now, job, demand(raw));
                    o.enqueue(now, job, demand(raw));
                }
                2 => {
                    // Mostly a job in service; sometimes one long gone or
                    // never seen, which must be a no-op on both sides.
                    let live = o.active_jobs();
                    let job = if !live.is_empty() && raw % 4 != 0 {
                        live[(raw / 4) as usize % live.len()]
                    } else {
                        JobId(raw % (next_job + 2))
                    };
                    prop_assert_eq!(r.cancel(now, job), o.cancel(now, job), "cancel {:?}", job);
                }
                3 => {
                    let target = now + SimDuration::from_micros(raw % 700);
                    while let Some(at) = o.next_completion(now) {
                        prop_assert_eq!(r.next_completion(now), Some(at));
                        if at > target {
                            break;
                        }
                        now = at;
                        pop_and_compare(&mut r, &mut o, now, &mut buf)?;
                    }
                    now = target;
                    r.advance(now);
                    o.advance(now);
                }
                _ => {
                    pop_and_compare(&mut r, &mut o, now, &mut buf)?;
                }
            }
            prop_assert_eq!(r.next_completion(now), o.next_completion(now), "next completion");
            prop_assert_eq!(r.active_jobs(), o.active_jobs(), "active order");
            prop_assert_eq!(r.in_service(), o.active.len());
            prop_assert_eq!(r.epoch(), o.epoch, "epoch");
            prop_assert_eq!(r.stats(), o.stats, "stats");
        }

        // Drain: everything left completes, in the same order.
        let mut guard = 0;
        while let Some(at) = o.next_completion(now) {
            guard += 1;
            prop_assert!(guard < 10_000, "did not drain");
            prop_assert_eq!(r.next_completion(now), Some(at));
            now = at;
            pop_and_compare(&mut r, &mut o, now, &mut buf)?;
        }
        prop_assert_eq!(r.in_service(), 0);
        prop_assert_eq!(r.stats(), o.stats, "final stats");
    }
}
