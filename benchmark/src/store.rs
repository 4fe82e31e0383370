//! A checkpoint store that times and counts the calls the program makes
//! into it, so the checkpoint layer is measured from outside the program.

use crate::harness::Report;
use crate::stats::ratio;
use egd_core::error::EgdResult;
use egd_fault::CheckpointStore;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Totals of the calls made into a [`TimedStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreCounts {
    /// `save` calls.
    pub saves: u64,
    /// Nanoseconds spent inside the wrapped `save`.
    pub save_ns: u64,
    /// Bytes handed to `save`.
    pub bytes_saved: u64,
    /// `load` calls that found a snapshot.
    pub loads: u64,
    /// Nanoseconds spent inside the wrapped `load`.
    pub load_ns: u64,
    /// Bytes of the snapshots the store holds now.
    pub bytes_held: u64,
}

/// Wraps a store; every `save` and `load` is timed around the inner call.
pub struct TimedStore<S> {
    inner: S,
    counts: Mutex<StoreCounts>,
    /// Size of each held snapshot, so overwrites keep `bytes_held` exact.
    held: Mutex<HashMap<(usize, u64), u64>>,
}

impl<S: CheckpointStore> TimedStore<S> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: S) -> Self {
        TimedStore {
            inner,
            counts: Mutex::new(StoreCounts::default()),
            held: Mutex::new(HashMap::new()),
        }
    }

    /// The totals so far.
    pub fn counts(&self) -> StoreCounts {
        *self
            .counts
            .lock()
            .expect("store counters are never poisoned")
    }
}

impl<S: CheckpointStore> CheckpointStore for TimedStore<S> {
    fn save(&self, rank: usize, generation: u64, bytes: &[u8]) -> EgdResult<()> {
        let start = Instant::now();
        let result = self.inner.save(rank, generation, bytes);
        let elapsed = start.elapsed().as_nanos() as u64;
        if result.is_ok() {
            let len = bytes.len() as u64;
            let replaced = self
                .held
                .lock()
                .expect("store size map is never poisoned")
                .insert((rank, generation), len)
                .unwrap_or(0);
            let mut counts = self
                .counts
                .lock()
                .expect("store counters are never poisoned");
            counts.saves += 1;
            counts.save_ns += elapsed;
            counts.bytes_saved += len;
            counts.bytes_held = counts.bytes_held + len - replaced;
        }
        result
    }

    fn load(&self, rank: usize, generation: u64) -> EgdResult<Option<Vec<u8>>> {
        let start = Instant::now();
        let result = self.inner.load(rank, generation);
        let elapsed = start.elapsed().as_nanos() as u64;
        if let Ok(Some(_)) = &result {
            let mut counts = self
                .counts
                .lock()
                .expect("store counters are never poisoned");
            counts.loads += 1;
            counts.load_ns += elapsed;
        }
        result
    }

    fn generations(&self, rank: usize) -> EgdResult<Vec<u64>> {
        self.inner.generations(rank)
    }
}

/// The `fault.checkpoint.*` metrics, per job, from the timed stores.
pub fn report(report: &mut Report, jobs: &[StoreCounts]) {
    let n = jobs.len() as f64;
    let sum = |f: fn(&StoreCounts) -> u64| jobs.iter().map(f).sum::<u64>() as f64;
    report.metric("fault.checkpoint.saves", ratio(sum(|c| c.saves), n));
    report.metric(
        "fault.checkpoint.save_us",
        ratio(sum(|c| c.save_ns) / 1e3, sum(|c| c.saves)),
    );
    report.metric(
        "fault.checkpoint.mb",
        ratio(sum(|c| c.bytes_saved) / 1e6, n),
    );
    report.metric(
        "fault.checkpoint.held_mb",
        ratio(sum(|c| c.bytes_held) / 1e6, n),
    );
    report.metric("fault.checkpoint.loads", ratio(sum(|c| c.loads), n));
    report.metric(
        "fault.checkpoint.load_us",
        ratio(sum(|c| c.load_ns) / 1e3, sum(|c| c.loads)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_fault::MemoryStore;

    #[test]
    fn counts_saves_loads_and_held_bytes() {
        let store = TimedStore::new(MemoryStore::new());
        store.save(0, 0, &[1; 10]).unwrap();
        store.save(1, 0, &[2; 20]).unwrap();
        store.save(0, 0, &[3; 5]).unwrap(); // overwrite
        assert_eq!(store.load(0, 0).unwrap(), Some(vec![3; 5]));
        assert_eq!(store.load(7, 9).unwrap(), None); // a miss is no load
        assert_eq!(store.latest(1).unwrap(), Some(0));

        let counts = store.counts();
        assert_eq!(counts.saves, 3);
        assert_eq!(counts.bytes_saved, 35);
        assert_eq!(counts.bytes_held, 25);
        assert_eq!(counts.loads, 1);
        assert!(counts.save_ns > 0);
    }
}
