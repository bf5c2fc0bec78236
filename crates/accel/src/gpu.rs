//! GPU devices with explicit memory remanence (paper Sec. IV-F).
//!
//! "GPUs do not clear their memory before reassignment to another job/user
//! ... the data of the previous user's job will remain in GPU memory and
//! registers." The model keeps device memory as a persistent byte store that
//! survives assignment changes; only an explicit [`Gpu::scrub`] (the
//! vendor-provided clear the paper runs in the scheduler epilog) zeroes it.

use eus_simcore::SimDuration;
use eus_simos::{DeviceId, NodeId, Uid};
use std::fmt;
use std::ops::Range;

/// GPU access errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// Access beyond the device memory.
    OutOfBounds {
        /// Memory size.
        len: usize,
        /// Attempted end offset.
        end: usize,
    },
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::OutOfBounds { len, end } => {
                write!(f, "gpu access out of bounds: end {end} > len {len}")
            }
        }
    }
}

impl std::error::Error for GpuError {}

/// Result of a scrub pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// The device scrubbed.
    pub device: DeviceId,
    /// Bytes cleared.
    pub bytes: usize,
    /// Modeled wall time of the clear.
    pub duration: SimDuration,
}

/// Scrub throughput: modeled 4 GiB/s (one `cudaMemset`-style pass).
pub const SCRUB_BYTES_PER_US: usize = 4 * 1024;

/// One GPU.
#[derive(Debug, Clone)]
pub struct Gpu {
    /// Device identity (as exposed in `/dev`).
    pub device: DeviceId,
    /// Node hosting the device.
    pub node: NodeId,
    /// Current assignee, if any. Enforcement happens at the device-file
    /// layer ([`crate::devfile`]); this field is bookkeeping for the pool.
    pub assigned_to: Option<Uid>,
    mem: Vec<u8>,
    /// Every byte outside this range is zero: widened by [`Gpu::write`],
    /// emptied by [`Gpu::scrub`], so a clean device answers
    /// [`Gpu::is_dirty`] without touching its memory.
    dirty: Range<usize>,
}

impl Gpu {
    /// A GPU with `mem_bytes` of device memory, initially zeroed.
    pub fn new(node: NodeId, index: u16, mem_bytes: usize) -> Self {
        Gpu {
            device: DeviceId::gpu(index),
            node,
            assigned_to: None,
            mem: vec![0u8; mem_bytes],
            dirty: 0..0,
        }
    }

    /// Device memory size.
    pub fn mem_len(&self) -> usize {
        self.mem.len()
    }

    /// Write into device memory. NOTE: deliberately no credential check —
    /// the hardware has "no concept of data ownership"; gating is done by
    /// whether the caller could open the device file at all.
    pub fn write(&mut self, offset: usize, bytes: &[u8]) -> Result<(), GpuError> {
        let span = self.span(offset, bytes.len())?;
        if span.is_empty() {
            return Ok(());
        }
        self.dirty = if self.dirty.is_empty() {
            span.clone()
        } else {
            self.dirty.start.min(span.start)..self.dirty.end.max(span.end)
        };
        self.mem[span].copy_from_slice(bytes);
        Ok(())
    }

    /// Read from device memory (same non-check as write).
    pub fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, GpuError> {
        Ok(self.mem[self.span(offset, len)?].to_vec())
    }

    /// `offset..offset + len` if it lies inside device memory. The end is
    /// computed checked: an offset near `usize::MAX` must not wrap past the
    /// bounds test (it reports `end: usize::MAX`).
    fn span(&self, offset: usize, len: usize) -> Result<Range<usize>, GpuError> {
        match offset.checked_add(len) {
            Some(end) if end <= self.mem.len() => Ok(offset..end),
            end => Err(GpuError::OutOfBounds {
                len: self.mem.len(),
                end: end.unwrap_or(usize::MAX),
            }),
        }
    }

    /// Any non-zero byte in device memory (remanent data present)? Only the
    /// written extent is looked at — the residue oracle asks this of clean
    /// devices far more often than of dirty ones.
    pub fn is_dirty(&self) -> bool {
        let dirty = self.mem[self.dirty.clone()].iter().any(|b| *b != 0);
        debug_assert_eq!(dirty, self.mem.iter().any(|b| *b != 0));
        dirty
    }

    /// Vendor-style clear: zero all device memory; returns the modeled cost.
    pub fn scrub(&mut self) -> ScrubReport {
        let bytes = self.mem.len();
        self.mem.fill(0);
        self.dirty = 0..0;
        ScrubReport {
            device: self.device,
            bytes,
            duration: SimDuration::from_micros(bytes.div_ceil(SCRUB_BYTES_PER_US) as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn write_read_roundtrip() {
        let mut g = Gpu::new(NodeId(1), 0, 4096);
        g.write(100, b"weights").unwrap();
        assert_eq!(g.read(100, 7).unwrap(), b"weights");
        assert!(g.is_dirty());
    }

    #[test]
    fn remanence_survives_reassignment() {
        let mut g = Gpu::new(NodeId(1), 0, 4096);
        g.assigned_to = Some(Uid(100));
        g.write(0, b"victim secret").unwrap();
        // Reassignment does nothing to memory — that's the vulnerability.
        g.assigned_to = Some(Uid(200));
        assert_eq!(g.read(0, 13).unwrap(), b"victim secret");
    }

    #[test]
    fn scrub_clears_and_costs_time() {
        let mut g = Gpu::new(NodeId(1), 0, 1 << 20);
        g.write(12345, &[0xAB; 100]).unwrap();
        let report = g.scrub();
        assert!(!g.is_dirty());
        assert_eq!(report.bytes, 1 << 20);
        assert_eq!(
            report.duration,
            SimDuration::from_micros(((1usize << 20) / SCRUB_BYTES_PER_US) as u64)
        );
        assert_eq!(g.read(12345, 100).unwrap(), vec![0u8; 100]);
    }

    #[test]
    fn bounds_checked() {
        let mut g = Gpu::new(NodeId(1), 0, 16);
        assert_eq!(
            g.write(10, &[0; 10]).unwrap_err(),
            GpuError::OutOfBounds { len: 16, end: 20 }
        );
        assert!(g.read(0, 17).is_err());
    }

    #[test]
    fn offset_near_usize_max_is_out_of_bounds_not_a_wrap() {
        let mut g = Gpu::new(NodeId(1), 0, 16);
        let oob = GpuError::OutOfBounds {
            len: 16,
            end: usize::MAX,
        };
        // usize::MAX - 3 + 8 wraps to 4 <= 16: unchecked, release builds
        // accept it and debug builds panic on the add.
        assert_eq!(g.write(usize::MAX - 3, &[1; 8]).unwrap_err(), oob);
        assert_eq!(g.read(usize::MAX - 3, 8).unwrap_err(), oob);
        assert_eq!(g.read(8, usize::MAX).unwrap_err(), oob);
        assert!(!g.is_dirty());
        // Edges that are in bounds stay in bounds.
        assert_eq!(g.read(16, 0).unwrap(), Vec::<u8>::new());
        g.write(16, &[]).unwrap();
        g.write(15, &[7]).unwrap();
        assert_eq!(g.read(15, 1).unwrap(), [7]);
    }

    /// One step of a device tape: `(kind, offset, len, fill)`.
    type Step = (u8, usize, usize, u8);

    proptest! {
        /// `is_dirty()` is the naive whole-memory scan after every step of a
        /// random write / scrub / read tape — zero-byte writes, all-zero
        /// writes, rejected writes and writes that zero out earlier data
        /// included.
        #[test]
        fn is_dirty_equals_the_full_scan(
            tape in proptest::collection::vec((0u8..8, 0usize..80, 0usize..24, 0u8..3), 0..40),
        ) {
            const LEN: usize = 64;
            let mut g = Gpu::new(NodeId(1), 0, LEN);
            let mut model = [0u8; LEN];
            let tape: Vec<Step> = tape;
            for (kind, offset, len, fill) in tape {
                match kind {
                    0 => {
                        g.scrub();
                        model = [0; LEN];
                    }
                    1 => {
                        let got = g.read(offset, len).ok();
                        prop_assert_eq!(got.as_deref(), model.get(offset..offset + len));
                    }
                    _ => {
                        // fill 0 is the all-zero write; len 0 the empty one.
                        let wrote = g.write(offset, &vec![fill; len]).is_ok();
                        prop_assert_eq!(wrote, offset + len <= LEN);
                        if wrote {
                            model[offset..offset + len].fill(fill);
                        }
                    }
                }
                prop_assert_eq!(g.mem.as_slice(), model.as_slice());
                prop_assert_eq!(g.is_dirty(), model.iter().any(|b| *b != 0));
            }
        }
    }
}
