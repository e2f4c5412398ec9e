//! Background registry sampler for `\top`-style live display.
//!
//! A [`Sampler`] owns one thread that wakes on a fixed interval, takes a
//! metrics [`snapshot`](crate::metrics::snapshot), diffs it against the
//! previous one, and pushes the delta into a bounded in-memory ring. The
//! shell reads the ring to show "what moved in the last tick".
//!
//! Determinism contract: the sampler only *reads* the registry (snapshot
//! is a read of relaxed atomics) and never touches the span ring, so a
//! traced run's span sequence is bit-identical with or without a sampler
//! attached. Dropping the sampler signals the thread through a condvar
//! and joins it, so no thread outlives the handle.

use crate::metrics::{snapshot, MetricValue, Snapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One interval's registry movement.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Sample index (0 = first tick after start).
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch at capture.
    pub at_ms: u64,
    /// Counter increments over the interval (name, delta), name-sorted,
    /// zero deltas included so consumers can distinguish "idle" from
    /// "unregistered".
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge high-water marks at capture (absolute, not delta).
    pub gauges: Vec<(&'static str, u64)>,
    /// Histogram observation-count increments over the interval.
    pub histograms: Vec<(&'static str, u64)>,
}

impl Sample {
    fn diff(seq: u64, prev: &Snapshot, cur: &Snapshot) -> Sample {
        let mut s = Sample { seq, at_ms: crate::eventlog::now_ms(), ..Sample::default() };
        for (name, v) in cur.entries() {
            match v {
                MetricValue::Counter(n) => {
                    let before = prev.counter(name);
                    s.counters.push((name, n.saturating_sub(before)));
                }
                MetricValue::Gauge(n) => s.gauges.push((name, *n)),
                MetricValue::Histogram { count, .. } => {
                    let before = match prev.get(name) {
                        Some(MetricValue::Histogram { count, .. }) => *count,
                        _ => 0,
                    };
                    s.histograms.push((name, count.saturating_sub(before)));
                }
            }
        }
        s
    }
}

struct Shared {
    ring: Mutex<VecDeque<Sample>>,
    wake: Condvar,
    stop_mutex: Mutex<bool>,
    stopping: AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handle to a running sampler thread; drop to stop it.
pub struct Sampler {
    shared: Arc<Shared>,
    interval: Duration,
    capacity: usize,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Starts a sampler ticking every `interval`, retaining the newest
    /// `capacity` samples.
    pub fn start(interval: Duration, capacity: usize) -> Sampler {
        let capacity = capacity.max(1);
        let shared = Arc::new(Shared {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            wake: Condvar::new(),
            stop_mutex: Mutex::new(false),
            stopping: AtomicBool::new(false),
        });
        let worker = Arc::clone(&shared);
        // The baseline is taken before spawning: a counter bumped right
        // after `start` returns must show up in a sample, not vanish into
        // a baseline the worker happened to take late.
        let mut prev = snapshot();
        let handle = std::thread::Builder::new()
            .name("cqa-sampler".into())
            .spawn(move || {
                let mut seq = 0u64;
                loop {
                    // Interruptible sleep: Drop flips the flag under the
                    // mutex and notifies, so shutdown doesn't wait out
                    // the tick. Checking *before* the wait as well closes
                    // the lost-wakeup window where Drop signals between
                    // two iterations.
                    let guard = lock(&worker.stop_mutex);
                    if *guard {
                        return;
                    }
                    let (guard, _timeout) = worker
                        .wake
                        .wait_timeout(guard, interval)
                        .unwrap_or_else(PoisonError::into_inner);
                    let stopped = *guard;
                    drop(guard);
                    if stopped || worker.stopping.load(Ordering::Relaxed) {
                        return;
                    }
                    let cur = snapshot();
                    let sample = Sample::diff(seq, &prev, &cur);
                    seq += 1;
                    prev = cur;
                    let mut ring = lock(&worker.ring);
                    if ring.len() >= capacity {
                        ring.pop_front();
                    }
                    ring.push_back(sample);
                }
            })
            .expect("spawn sampler thread");
        Sampler { shared, interval, capacity, handle: Some(handle) }
    }

    /// The configured tick interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Copies the retained samples, oldest first.
    pub fn samples(&self) -> Vec<Sample> {
        lock(&self.shared.ring).iter().cloned().collect()
    }

    /// The most recent sample, if any tick has fired yet.
    pub fn latest(&self) -> Option<Sample> {
        lock(&self.shared.ring).back().cloned()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shared.stopping.store(true, Ordering::Relaxed);
        *lock(&self.shared.stop_mutex) = true;
        self.shared.wake.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::counter;

    #[test]
    fn samples_deltas_and_stops_cleanly() {
        let c = counter("test.sampler.work");
        let s = Sampler::start(Duration::from_millis(5), 8);
        c.add(10);
        // Wait for at least one tick to observe the increment.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let seen = loop {
            if let Some(sample) = s
                .samples()
                .iter()
                .find(|smp| smp.counters.iter().any(|(n, d)| *n == "test.sampler.work" && *d >= 10))
            {
                break sample.clone();
            }
            assert!(std::time::Instant::now() < deadline, "sampler never saw the delta");
            std::thread::sleep(Duration::from_millis(2));
        };
        assert!(seen.counters.iter().any(|(n, d)| *n == "test.sampler.work" && *d >= 10));
        // Ring stays bounded.
        std::thread::sleep(Duration::from_millis(60));
        assert!(s.samples().len() <= 8);
        // Drop joins the thread promptly even mid-interval.
        let slow = Sampler::start(Duration::from_secs(3600), 2);
        let t0 = std::time::Instant::now();
        drop(slow);
        assert!(t0.elapsed() < Duration::from_secs(5), "drop must not wait out the interval");
        drop(s);
    }
}
