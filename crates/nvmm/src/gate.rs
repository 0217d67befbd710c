//! The NVMM write-bandwidth gate.
//!
//! The paper emulates NVMM's limited write bandwidth by capping the number
//! of concurrently writing threads at `N_w` and queueing the rest (§5.1).
//! This gate implements the same cap for both time modes:
//!
//! - In **virtual** time it is a *utilization calendar*: time is split
//!   into 1 µs buckets, each with room for `bandwidth × 1 µs` worth of
//!   cachelines. A line written at time `t` occupies the first bucket at
//!   or after `t` with spare room; when demand exceeds the device
//!   bandwidth the next free bucket moves into the future and the writer's
//!   clock is pushed along — exactly the queueing the paper's `N_w` model
//!   produces, but fair at cacheline granularity and insensitive to the
//!   discrete-event scheduler's actor-clock skew (an actor whose clock
//!   lags may fill a past bucket that genuinely had bandwidth to spare).
//!   The calendar is dense: a ring of per-bucket line counts indexed from
//!   a base bucket, whose forgotten front is drained as the slowest
//!   admitter moves on. [`BandwidthGate::admit_lines`] places a persist's
//!   lines one after another under a single lock hold; each line is still
//!   placed on its own, at the completion time of the line before it.
//! - In **spin** mode it is a counting semaphore of `N_w` permits taken
//!   per cacheline; the caller blocks for a permit and busy-waits the line
//!   latency, just like the paper's emulator.

use std::collections::VecDeque;
use std::sync::Arc;

use obsv::{ContentionTable, Site, TrackedCondvar, TrackedMutex};

/// Width of one calendar bucket, ns.
const BUCKET_NS: u64 = 1_000;

/// Keep this many µs of calendar history behind the slowest admitter.
const PRUNE_WINDOW: u64 = 100_000;

/// The calendar is pruned once every this many admitted lines.
const PRUNE_EVERY: u64 = 8192;

#[derive(Debug)]
struct Calendar {
    /// Lines booked per bucket: `used[i]` belongs to bucket `base + i`.
    used: VecDeque<u32>,
    /// Bucket index of `used[0]`. An empty calendar rebases to the first
    /// bucket it is asked for.
    base: u64,
    /// Buckets below this are forgotten (always considered full).
    floor: u64,
    /// Lowest bucket *requested* since the last prune. Pruning follows the
    /// slowest admitter, never the fastest: a lagging actor must not queue
    /// behind forgotten history just because another actor's clock runs
    /// far ahead.
    low: u64,
    admits: u64,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar {
            used: VecDeque::new(),
            base: 0,
            floor: 0,
            low: u64::MAX,
            admits: 0,
        }
    }
}

impl Calendar {
    /// Books one line into the first bucket at or after `want` (and the
    /// floor) with room; returns that bucket.
    fn place(&mut self, want: u64, cap: u32) -> u64 {
        self.low = self.low.min(want);
        let b = want.max(self.floor);
        if self.used.is_empty() {
            self.base = b;
        } else if b < self.base {
            // A lagging admitter reaches behind the oldest booked bucket.
            for _ in b..self.base {
                self.used.push_front(0);
            }
            self.base = b;
        }
        let mut i = (b - self.base) as usize;
        while i < self.used.len() && self.used[i] >= cap {
            i += 1;
        }
        if i >= self.used.len() {
            self.used.resize(i + 1, 0);
        }
        self.used[i] += 1;
        let placed = self.base + i as u64;
        self.admits += 1;
        if self.admits.is_multiple_of(PRUNE_EVERY) {
            self.prune();
        }
        placed
    }

    /// Forgets the buckets more than [`PRUNE_WINDOW`] behind the slowest
    /// admitter since the last prune.
    fn prune(&mut self) {
        let cutoff = self.low.saturating_sub(PRUNE_WINDOW);
        if cutoff > self.floor {
            if cutoff > self.base {
                let n = ((cutoff - self.base) as usize).min(self.used.len());
                self.used.drain(..n);
                self.base = cutoff;
            }
            self.floor = cutoff;
        }
        self.low = u64::MAX;
    }
}

/// An `N_w`-writer bandwidth gate.
#[derive(Debug)]
pub struct BandwidthGate {
    /// Virtual mode calendar.
    cal: TrackedMutex<Calendar>,
    /// Lines that fit in one bucket (device bandwidth × bucket width).
    lines_per_bucket: u32,
    /// Spin mode: available permits.
    permits: TrackedMutex<usize>,
    cv: TrackedCondvar,
    n: usize,
}

impl BandwidthGate {
    /// Creates a gate with `n` writer slots sustaining
    /// `bandwidth_bytes_per_sec` in total.
    pub fn new(n: usize, bandwidth_bytes_per_sec: u64) -> Self {
        let n = n.max(1);
        let bytes_per_bucket = bandwidth_bytes_per_sec as u128 * BUCKET_NS as u128 / 1_000_000_000;
        let lines_per_bucket = (bytes_per_bucket / crate::CACHELINE as u128).max(1) as u32;
        BandwidthGate {
            cal: TrackedMutex::new(Site::NvmmGate, Calendar::default()),
            lines_per_bucket,
            permits: TrackedMutex::new(Site::NvmmGate, n),
            cv: TrackedCondvar::new(),
            n,
        }
    }

    /// Connects the gate's locks to a contention table (first caller
    /// wins). `SimEnv::new` calls this right after construction.
    pub fn attach_contention(&self, table: &Arc<ContentionTable>) {
        self.cal.attach(table);
        self.permits.attach(table);
    }

    /// Number of writer slots (spin mode).
    pub fn slots(&self) -> usize {
        self.n
    }

    /// Cacheline capacity of one 1 µs calendar bucket (virtual mode).
    pub fn lines_per_bucket(&self) -> u32 {
        self.lines_per_bucket
    }

    /// Virtual mode: admits `lines` cacheline writes issued back to back
    /// from `now`, each with service time `line_ns`; returns the
    /// completion time of the last one (`now` for zero lines).
    ///
    /// Every line is placed on its own: it is issued at the completion
    /// time of the line before it and takes the first bucket at or after
    /// that time with room. Only the lock is taken once for the batch.
    pub fn admit_lines(&self, now: u64, line_ns: u64, lines: usize) -> u64 {
        let mut cal = self.cal.lock();
        let mut now = now;
        for _ in 0..lines {
            let b = cal.place(now / BUCKET_NS, self.lines_per_bucket);
            now = now.max(b * BUCKET_NS) + line_ns;
        }
        now
    }

    /// Spin mode: blocks until a writer slot is available.
    pub fn acquire(&self) {
        let mut p = self.permits.lock();
        while *p == 0 {
            self.cv.wait(&mut p);
        }
        *p -= 1;
    }

    /// Spin mode: returns a writer slot.
    pub fn release(&self) {
        let mut p = self.permits.lock();
        *p += 1;
        drop(p);
        self.cv.notify_one();
    }

    /// Resets the virtual calendar to empty (used when re-basing a
    /// timeline).
    pub fn reset(&self) {
        let mut cal = self.cal.lock();
        *cal = Calendar::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> BandwidthGate {
        // 1 GiB/s: 16 lines per µs bucket.
        BandwidthGate::new(4, 1 << 30)
    }

    #[test]
    fn bucket_capacity_matches_bandwidth() {
        let g = gate();
        // (1 GiB/s × 1 µs) / 64 B = 16.7 -> 16 lines.
        assert_eq!(g.lines_per_bucket(), 16);
        // A tiny-bandwidth device still admits at least one line.
        let tiny = BandwidthGate::new(1, 1);
        assert_eq!(tiny.lines_per_bucket(), 1);
    }

    #[test]
    fn sequential_writer_never_queues() {
        let g = gate();
        // One line per 200 ns = 5 per bucket, below the 16-line capacity.
        let mut now = 0;
        for _ in 0..100 {
            now = g.admit_lines(now, 200, 1);
        }
        assert_eq!(now, 100 * 200);
    }

    #[test]
    fn saturation_pushes_completions_out() {
        let g = gate();
        // 64 lines all issued at t=0 (e.g. four threads writing a block
        // each): 16 fit in bucket 0, the rest spill into later buckets.
        let mut last = 0;
        for _ in 0..64 {
            last = last.max(g.admit_lines(0, 200, 1));
        }
        // The 64th line lands in bucket 3: starts at 3 µs.
        assert_eq!(last, 3_000 + 200);
    }

    #[test]
    fn lagging_clock_backfills_idle_buckets() {
        let g = gate();
        // A fast actor books far in the future.
        let mut now = 1_000_000;
        for _ in 0..32 {
            now = g.admit_lines(now, 200, 1);
        }
        // A lagging actor at t=0 does not wait behind those bookings: the
        // early buckets were idle.
        assert_eq!(g.admit_lines(0, 200, 1), 200);
    }

    #[test]
    fn reset_clears_the_calendar() {
        let g = gate();
        for _ in 0..64 {
            g.admit_lines(0, 200, 1);
        }
        g.reset();
        assert_eq!(g.admit_lines(0, 200, 1), 200);
    }

    #[test]
    fn admit_lines_chains_lines_like_single_admits() {
        let batched = gate();
        let single = gate();
        for (now, lines) in [(0, 64), (500, 3), (0, 40), (90_000, 1), (10, 0)] {
            let mut t = now;
            for _ in 0..lines {
                t = single.admit_lines(t, 200, 1);
            }
            assert_eq!(batched.admit_lines(now, 200, lines), t);
        }
    }

    #[test]
    fn first_admission_at_a_late_clock_rebases_the_calendar() {
        let g = gate();
        assert_eq!(g.admit_lines(5_000_000_000, 200, 1), 5_000_000_200);
        assert!(g.cal.lock().used.len() <= 1, "no history is allocated");
        // A lagging admitter still finds the early buckets idle.
        assert_eq!(g.admit_lines(3_000, 200, 1), 3_200);
    }

    /// The sparse calendar the dense one replaced, kept as the reference
    /// its placements must match.
    #[derive(Default)]
    struct Reference {
        used: std::collections::HashMap<u64, u32>,
        floor: u64,
        low: Option<u64>,
        admits: u64,
    }

    impl Reference {
        fn admit(&mut self, now: u64, line_ns: u64, cap: u32) -> u64 {
            let want = now / BUCKET_NS;
            self.low = Some(self.low.map_or(want, |l| l.min(want)));
            let mut b = want.max(self.floor);
            loop {
                let used = self.used.entry(b).or_insert(0);
                if *used < cap {
                    *used += 1;
                    break;
                }
                b += 1;
            }
            self.admits += 1;
            if self.admits.is_multiple_of(PRUNE_EVERY) {
                let cutoff = self.low.unwrap().saturating_sub(PRUNE_WINDOW);
                if cutoff > self.floor {
                    self.used.retain(|&k, _| k >= cutoff);
                    self.floor = cutoff;
                }
                self.low = None;
            }
            now.max(b * BUCKET_NS) + line_ns
        }
    }

    #[test]
    fn dense_calendar_matches_the_sparse_reference() {
        for seed in 0..4u64 {
            let g = gate();
            let cap = g.lines_per_bucket();
            let mut r = Reference::default();
            // Three actors: a steady writer, a bursty one that runs ahead,
            // and a laggard that falls far behind and catches up.
            let mut clocks = [0u64, 0, 0];
            let mut admitted = 0u64;
            let mut pruned = false;
            for step in 0..12_000u64 {
                let x = crate::fault::mix(seed, step);
                let a = (x % 3) as usize;
                match (x >> 8) % 64 {
                    0..=7 => clocks[a] += 4_000_000,
                    8..=11 => clocks[a] = clocks[a].saturating_sub(1_000_000),
                    12..=19 => clocks[a] += (x >> 16) % 5_000,
                    _ => {}
                }
                if step % 1_500 == 0 {
                    // Far behind the pruned history: lands on the floor.
                    clocks[a] = clocks[a].saturating_sub(150_000_000);
                }
                if step == 9_000 {
                    g.reset();
                    r = Reference::default();
                    clocks = [0, 0, 0];
                }
                // Saturating bursts (many lines at one instant) and short
                // persists alike.
                let lines = if (x >> 20).is_multiple_of(8) {
                    64
                } else {
                    1 + (x >> 24) as usize % 4
                };
                let line_ns = 100 + (x >> 32) % 200;
                let mut want = clocks[a];
                for _ in 0..lines {
                    want = r.admit(want, line_ns, cap);
                }
                let got = g.admit_lines(clocks[a], line_ns, lines);
                assert_eq!(got, want, "seed {seed} step {step}");
                clocks[a] = got;
                admitted += lines as u64;
                pruned |= g.cal.lock().floor > 0;
            }
            assert!(admitted > 3 * PRUNE_EVERY, "pruning ran several times");
            assert!(pruned, "pruning forgot history");
        }
    }

    #[test]
    fn spin_semaphore_roundtrip() {
        let g = gate();
        g.acquire();
        g.acquire();
        g.release();
        g.acquire();
        g.release();
        g.release();
    }

    #[test]
    fn throughput_is_capped_at_bandwidth() {
        let g = gate();
        // Hammer 10,000 lines from t=0: total span must reflect ~16
        // lines/us.
        let mut last = 0u64;
        for _ in 0..10_000 {
            last = last.max(g.admit_lines(0, 200, 1));
        }
        let expect_us = 10_000 / 16;
        let got_us = last / 1_000;
        assert!(
            (got_us as i64 - expect_us as i64).abs() <= 2,
            "span {got_us} us vs expected {expect_us} us"
        );
    }
}
