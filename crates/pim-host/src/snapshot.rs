//! Whole-set state capture for deterministic replay.
//!
//! A [`SetSnapshot`] freezes every DPU of a [`DpuSet`] — WRAM, the COW
//! MRAM page table, DMA accounting and the perf counter — in O(resident
//! pages) per DPU, not O(capacity): untouched and broadcast-shared MRAM
//! pages are captured by reference. Restoring and re-launching with the
//! same program, seed and engine re-executes bit-identically — results,
//! traces, and fault reports ([`dpu_sim::faults`] draws are pure functions
//! of `(seed, dpu, attempt)`, so they replay too).

use crate::error::{HostError, Result};
use crate::set::DpuSet;
use dpu_sim::MachineSnapshot;

/// Frozen state of every DPU in a set. Capturing shares MRAM page storage
/// with the live machines (copy-on-write), so holding a snapshot is cheap
/// until the set diverges from it.
#[derive(Debug, Clone)]
pub struct SetSnapshot {
    per_dpu: Vec<MachineSnapshot>,
}

impl SetSnapshot {
    /// DPUs captured.
    #[must_use]
    pub fn dpus(&self) -> usize {
        self.per_dpu.len()
    }

    /// Materialized MRAM pages across the captured set (shared pages
    /// counted once per DPU referencing them).
    #[must_use]
    pub fn mram_resident_pages(&self) -> usize {
        self.per_dpu.iter().map(MachineSnapshot::mram_resident_pages).sum()
    }
}

impl DpuSet {
    /// Capture every DPU's state for later [`DpuSet::restore`].
    #[must_use]
    pub fn snapshot(&self) -> SetSnapshot {
        SetSnapshot { per_dpu: self.system().iter().map(|(_, m)| m.snapshot()).collect() }
    }

    /// Roll every DPU back to `snap`. The set's symbols, loaded program
    /// and engine pin are host-side state and are left as they are.
    ///
    /// # Errors
    /// [`HostError::SnapshotMismatch`] when the snapshot was taken from a
    /// set of a different size (nothing is restored).
    pub fn restore(&mut self, snap: &SetSnapshot) -> Result<()> {
        if snap.per_dpu.len() != self.len() {
            return Err(HostError::SnapshotMismatch {
                expected: self.len(),
                actual: snap.per_dpu.len(),
            });
        }
        for ((_, dpu), s) in self.system_mut().iter_mut().zip(&snap.per_dpu) {
            dpu.restore(s)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_sim::asm::assemble;
    use dpu_sim::{DpuId, Program};

    fn double_program() -> Program {
        assemble(
            "movi r1, 0\n\
             movi r2, 0\n\
             movi r3, 8\n\
             mram.read r1, r2, r3\n\
             lw r4, r1, 0\n\
             add r4, r4, r4\n\
             sw r1, 0, r4\n\
             mram.write r1, r2, r3\n\
             halt\n",
        )
        .unwrap()
    }

    fn seeded_set(n: usize) -> DpuSet {
        let mut set = DpuSet::allocate(n).unwrap();
        set.define_symbol("x", 8).unwrap();
        for i in 0..n {
            set.copy_to_dpu(DpuId(i as u32), "x", 0, &(i as u64 + 1).to_le_bytes()).unwrap();
        }
        set.load(&double_program()).unwrap();
        set
    }

    #[test]
    fn snapshot_restore_round_trips_results_and_memory() {
        let mut set = seeded_set(6);
        let snap = set.snapshot();
        let first = set.launch_loaded(1).unwrap();
        let after_first: Vec<u64> =
            (0..6).map(|i| set.copy_scalar_from(DpuId(i), "x").unwrap()).collect();

        set.restore(&snap).unwrap();
        for i in 0..6u32 {
            assert_eq!(set.copy_scalar_from(DpuId(i), "x").unwrap(), u64::from(i) + 1);
        }
        let replay = set.launch_loaded(1).unwrap();
        assert_eq!(replay, first, "snapshot -> replay must be bit-identical");
        let after_replay: Vec<u64> =
            (0..6).map(|i| set.copy_scalar_from(DpuId(i), "x").unwrap()).collect();
        assert_eq!(after_replay, after_first);
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let set_a = seeded_set(4);
        let mut set_b = seeded_set(5);
        let snap = set_a.snapshot();
        assert!(matches!(
            set_b.restore(&snap),
            Err(HostError::SnapshotMismatch { expected: 5, actual: 4 })
        ));
        // Nothing was restored.
        assert_eq!(set_b.copy_scalar_from(DpuId(0), "x").unwrap(), 1);
    }

    #[test]
    fn snapshot_shares_broadcast_pages() {
        let mut set = DpuSet::allocate(8).unwrap();
        set.define_symbol("w", 256 * 1024).unwrap();
        set.copy_to("w", 0, &vec![7u8; 256 * 1024]).unwrap();
        let before = set.system().mram_residency();
        let snap = set.snapshot();
        let after = set.system().mram_residency();
        // Capturing adds no page storage: the snapshot aliases the arena.
        assert_eq!(before.distinct_pages, after.distinct_pages);
        assert_eq!(snap.dpus(), 8);
        assert_eq!(snap.mram_resident_pages(), 8 * 4, "4 shared 64 KiB pages per DPU");
    }
}
