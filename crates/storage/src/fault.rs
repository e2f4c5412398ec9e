//! Deterministic fault injection for the storage layer.
//!
//! [`FaultyDisk`] decorates any [`DiskManager`] and injects three kinds of
//! storage fault, each drawn from a seeded in-tree PCG32 stream so every
//! run of a given seed observes the identical fault schedule:
//!
//! * **I/O errors** — a read or write fails with [`StorageError::Io`]
//!   before touching the inner disk. These model *transient* failures:
//!   retrying the operation redraws from the stream, which is exactly the
//!   behavior the buffer pool's bounded retry-with-backoff is built for.
//! * **Torn writes** — a write persists only a sector-aligned prefix of
//!   the new bytes (the tail keeps the previous page contents) and then
//!   reports success, like a power cut mid-write. Detection is the page
//!   checksum's job on a later read.
//! * **Bit flips** — a read returns the page with one random bit flipped
//!   (the bytes on the inner disk stay intact), modeling bus/DRAM
//!   corruption. A checksummed pool heals this by rereading.
//!
//! The decorator never panics and never misreports: every injected fault
//! either surfaces as a typed error immediately (I/O error) or is left for
//! the integrity machinery above to detect (torn write, bit flip).

use crate::disk::DiskManager;
use crate::page::{PageId, PAGE_SIZE};
use crate::{Result, StorageError};
use cqa_num::prng::Pcg32;

/// Torn writes cut at multiples of this many bytes, mimicking a disk that
/// persists whole 512-byte sectors atomically. The cut is always ≥ one
/// sector, so the page header (and its checksum field) is from the *new*
/// write while the tail is stale — the mismatch a CRC catches.
const SECTOR: usize = 512;

/// Per-kind injection probabilities and the stream seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault schedule; equal seeds give equal schedules.
    pub seed: u64,
    /// Probability that a read or write fails with an injected I/O error.
    pub io_error_rate: f64,
    /// Probability that a write persists only a sector-aligned prefix.
    pub torn_write_rate: f64,
    /// Probability that a read returns the page with one bit flipped.
    pub bit_flip_rate: f64,
}

impl FaultConfig {
    /// A schedule that never fires (useful as a control).
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig { seed, io_error_rate: 0.0, torn_write_rate: 0.0, bit_flip_rate: 0.0 }
    }

    /// A schedule injecting only `kind` at probability `rate`.
    pub fn only(seed: u64, kind: FaultKind, rate: f64) -> FaultConfig {
        let mut cfg = FaultConfig::none(seed);
        match kind {
            FaultKind::IoError => cfg.io_error_rate = rate,
            FaultKind::TornWrite => cfg.torn_write_rate = rate,
            FaultKind::BitFlip => cfg.bit_flip_rate = rate,
        }
        cfg
    }
}

/// The kinds of fault [`FaultyDisk`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Transient read/write failure ([`StorageError::Io`]).
    IoError,
    /// A write that persists only a sector-aligned prefix.
    TornWrite,
    /// A read that returns one flipped bit.
    BitFlip,
}

/// How many faults of each kind have been injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Injected I/O errors (reads and writes).
    pub io_errors: u64,
    /// Writes torn at a sector boundary.
    pub torn_writes: u64,
    /// Reads returned with a flipped bit.
    pub bit_flips: u64,
}

impl FaultCounts {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.io_errors + self.torn_writes + self.bit_flips
    }
}

/// A [`DiskManager`] decorator injecting deterministic, seeded faults.
pub struct FaultyDisk<D: DiskManager> {
    inner: D,
    rng: Pcg32,
    config: FaultConfig,
    counts: FaultCounts,
}

impl<D: DiskManager> FaultyDisk<D> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: D, config: FaultConfig) -> FaultyDisk<D> {
        FaultyDisk {
            inner,
            rng: Pcg32::seed_from_u64(config.seed),
            config,
            counts: FaultCounts::default(),
        }
    }

    /// Faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// The wrapped disk.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps, discarding the fault schedule.
    pub fn into_inner(self) -> D {
        self.inner
    }

    fn injected_io_error(&mut self, op: &'static str) -> StorageError {
        self.counts.io_errors += 1;
        StorageError::Io(std::io::Error::other(format!("injected {} fault", op)))
    }

    /// Draws one fault decision. Zero-rate kinds consume no randomness, so
    /// a schedule's draws depend only on the kinds actually enabled.
    fn draw(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.gen_bool(rate)
    }
}

impl<D: DiskManager> DiskManager for FaultyDisk<D> {
    /// Allocation is never faulted: the schedule targets the steady-state
    /// read/write path, and keeping allocation infallible keeps page ids
    /// identical across every (seed, rate) cell of a fault matrix.
    fn allocate(&mut self) -> Result<PageId> {
        self.inner.allocate()
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if self.draw(self.config.io_error_rate) {
            return Err(self.injected_io_error("read"));
        }
        self.inner.read(id, buf)?;
        if self.draw(self.config.bit_flip_rate) {
            let bit = self.rng.gen_below_usize(buf.len() * 8);
            buf[bit / 8] ^= 1 << (bit % 8);
            self.counts.bit_flips += 1;
        }
        Ok(())
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        if self.draw(self.config.io_error_rate) {
            return Err(self.injected_io_error("write"));
        }
        if self.draw(self.config.torn_write_rate) && buf.len() == PAGE_SIZE {
            // Persist a sector-aligned prefix of the new bytes over the
            // old page, then report success — the lie a power cut tells.
            let sectors = PAGE_SIZE / SECTOR;
            let cut = SECTOR * (1 + self.rng.gen_below_usize(sectors - 1));
            let mut torn = vec![0u8; PAGE_SIZE];
            self.inner.read(id, &mut torn)?;
            torn[..cut].copy_from_slice(&buf[..cut]);
            self.inner.write(id, &torn)?;
            self.counts.torn_writes += 1;
            return Ok(());
        }
        self.inner.write(id, buf)
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::disk::MemDisk;
    use crate::page::SlottedPage;

    fn filled_page() -> Vec<u8> {
        let mut data = vec![0u8; PAGE_SIZE];
        SlottedPage::init(&mut data);
        SlottedPage::new(&mut data).insert(&[7u8; 3000]).unwrap();
        data
    }

    #[test]
    fn zero_rates_are_a_passthrough() {
        let mut disk = FaultyDisk::new(MemDisk::new(), FaultConfig::none(1));
        let id = disk.allocate().unwrap();
        let page = filled_page();
        disk.write(id, &page).unwrap();
        let mut back = vec![0u8; PAGE_SIZE];
        disk.read(id, &mut back).unwrap();
        assert_eq!(page, back);
        assert_eq!(disk.counts(), FaultCounts::default());
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let cfg = FaultConfig { seed, io_error_rate: 0.3, torn_write_rate: 0.3, bit_flip_rate: 0.3 };
            let mut disk = FaultyDisk::new(MemDisk::new(), cfg);
            let id = disk.allocate().unwrap();
            let page = filled_page();
            let mut log = Vec::new();
            for _ in 0..50 {
                log.push(disk.write(id, &page).is_ok());
                let mut buf = vec![0u8; PAGE_SIZE];
                log.push(disk.read(id, &mut buf).is_ok());
            }
            (log, disk.counts())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds diverge");
    }

    #[test]
    fn io_errors_are_typed_and_counted() {
        let cfg = FaultConfig::only(7, FaultKind::IoError, 1.0);
        let mut disk = FaultyDisk::new(MemDisk::new(), cfg);
        let id = disk.allocate().unwrap();
        assert!(matches!(disk.write(id, &filled_page()), Err(StorageError::Io(_))));
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(matches!(disk.read(id, &mut buf), Err(StorageError::Io(_))));
        assert_eq!(disk.counts().io_errors, 2);
    }

    #[test]
    fn torn_write_detected_by_checksummed_pool() {
        let cfg = FaultConfig::only(5, FaultKind::TornWrite, 1.0);
        let mut pool = BufferPool::new(FaultyDisk::new(MemDisk::new(), cfg), 1).with_checksums();
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        // The page differs from its on-disk state (zeros) in the very last
        // byte, so every sector-aligned cut leaves a stale tail the seal's
        // CRC cannot match.
        pool.with_page_mut(a, |p| {
            SlottedPage::init(p);
            p[PAGE_SIZE - 1] = 0xAB;
        })
        .unwrap();
        pool.flush().unwrap(); // torn: prefix new, tail stale
        pool.with_page(b, |_| ()).unwrap(); // evict a (capacity 1)
        let got = pool.with_page(a, |_| ());
        match got {
            Err(StorageError::Corrupt { page, .. }) => assert_eq!(page, Some(a)),
            other => panic!("expected checksum mismatch, got {:?}", other),
        }
        assert!(pool.disk().counts().torn_writes >= 1);
        assert!(pool.stats().corrupt_rereads >= 1, "pool reread before failing");
    }

    #[test]
    fn bit_flips_heal_or_fail_typed_never_silently_corrupt() {
        // Read-side flips poison only the returned bytes; a checksummed
        // pool must either heal them by rereading or fail with a typed
        // error — never hand back a corrupt record. Sweep seeds so the
        // test does not depend on the draw layout of one schedule.
        let mut heals = 0u32;
        for seed in 0..40u64 {
            let mut cfg = FaultConfig::none(seed);
            cfg.bit_flip_rate = 0.5;
            let mut pool =
                BufferPool::new(FaultyDisk::new(MemDisk::new(), cfg), 1).with_checksums();
            let a = pool.allocate().unwrap();
            let b = pool.allocate().unwrap();
            pool.with_page_mut(a, |p| {
                SlottedPage::init(p);
                SlottedPage::new(p).insert(&[9u8; 2000]).unwrap();
            })
            .unwrap();
            pool.flush().unwrap();
            pool.with_page(b, |_| ()).unwrap(); // evict a
            match pool.with_page(a, |p| {
                let mut buf = p.to_vec();
                SlottedPage::new(&mut buf).get(0).map(|r| r.to_vec())
            }) {
                Ok(rec) => {
                    assert_eq!(
                        rec.as_deref(),
                        Some(&[9u8; 2000][..]),
                        "seed {}: accepted read must be intact",
                        seed
                    );
                    if pool.stats().corrupt_rereads > 0 {
                        heals += 1;
                    }
                }
                Err(StorageError::Corrupt { page, .. }) => assert_eq!(page, Some(a)),
                Err(other) => panic!("seed {}: unexpected error {:?}", seed, other),
            }
        }
        assert!(heals > 0, "at least one schedule exercises the heal path");
    }
}
