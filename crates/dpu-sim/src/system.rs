//! Topology of a full UPMEM PIM system: DPUs grouped into chips, ranks and
//! DIMMs (Fig. 2.1 / Table 2.1 of the paper).
//!
//! The evaluated server carries 20 DIMMs × 128 DPUs = 2560 DPUs. The
//! topology matters to the host runtime: broadcast transfers go to whole
//! DPU sets, and the paper's multi-DPU speedup (Fig. 4.7c) scales with the
//! number of allocated DPUs.

use crate::machine::Machine;
use crate::params::{self, DpuParams};
use serde::{Deserialize, Serialize};

/// Identifier of a DPU within a [`PimSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DpuId(pub u32);

impl DpuId {
    /// DIMM index holding this DPU.
    #[must_use]
    pub fn dimm(self) -> u32 {
        self.0 / params::DPUS_PER_DIMM as u32
    }

    /// Rank index within the system.
    #[must_use]
    pub fn rank(self) -> u32 {
        self.0 / (params::DPUS_PER_DIMM as u32 / params::RANKS_PER_DIMM as u32)
    }

    /// DRAM chip index within the system.
    #[must_use]
    pub fn chip(self) -> u32 {
        self.0 / params::DPUS_PER_CHIP as u32
    }
}

impl std::fmt::Display for DpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dpu{}", self.0)
    }
}

/// One rank of DPUs (the granularity UPMEM allocates at).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rank {
    /// Rank index.
    pub index: u32,
    /// First DPU in the rank.
    pub first_dpu: u32,
    /// Number of DPUs in the rank.
    pub dpus: u32,
}

/// A simulated multi-DPU system.
///
/// Instantiating all 2560 DPUs is cheap: MRAM is copy-on-write paged
/// ([`crate::CowMemory`]), so an untouched DPU's MRAM costs nothing, and
/// a set-wide write stores each page once for every DPU that holds the
/// same bytes there ([`crate::CowMemory::write_shared`];
/// [`PimSystem::mram_residency`] reports the real footprint). WRAM is a
/// copy-on-write image ([`crate::Wram`]): the DPUs start from one zero
/// image, and those that only replay recorded runs keep sharing one
/// ([`PimSystem::wram_images`]). The DPUs are fully independent, which is
/// exactly the property the paper's linear multi-DPU scaling rests on.
#[derive(Debug)]
pub struct PimSystem {
    /// Device parameters shared by all DPUs.
    pub params: DpuParams,
    dpus: Vec<Machine>,
}

/// MRAM arena accounting across a whole system — see
/// [`PimSystem::mram_residency`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MramResidency {
    /// Addressable MRAM across all DPUs (`n × 64 MiB`): what dense
    /// storage would cost.
    pub logical_bytes: usize,
    /// Materialized pages summed per DPU (shared pages counted once per
    /// DPU referencing them).
    pub resident_pages: usize,
    /// Bytes behind `resident_pages`.
    pub resident_bytes: usize,
    /// Distinct page storages (shared pages counted once) — the actual
    /// heap footprint of the arena.
    pub distinct_pages: usize,
    /// Bytes behind `distinct_pages`.
    pub distinct_bytes: usize,
}

impl MramResidency {
    /// Bytes avoided by page sharing alone (broadcast images referenced
    /// by many DPUs but stored once).
    #[must_use]
    pub fn shared_savings_bytes(&self) -> usize {
        self.resident_bytes - self.distinct_bytes
    }
}

impl PimSystem {
    /// Allocate a system of `n` DPUs, all sharing one zero WRAM image.
    #[must_use]
    pub fn new(n: usize, params: DpuParams) -> Self {
        Self { params, dpus: vec![Machine::new(params); n] }
    }

    /// Number of simulated DPUs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dpus.len()
    }

    /// True when the system holds no DPUs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dpus.is_empty()
    }

    /// Borrow one DPU.
    ///
    /// # Panics
    /// When `id` is out of range.
    #[must_use]
    pub fn dpu(&self, id: DpuId) -> &Machine {
        &self.dpus[id.0 as usize]
    }

    /// Mutably borrow one DPU.
    ///
    /// # Panics
    /// When `id` is out of range.
    pub fn dpu_mut(&mut self, id: DpuId) -> &mut Machine {
        &mut self.dpus[id.0 as usize]
    }

    /// Iterate over all DPUs.
    pub fn iter(&self) -> impl Iterator<Item = (DpuId, &Machine)> {
        self.dpus.iter().enumerate().map(|(i, m)| (DpuId(i as u32), m))
    }

    /// Mutably iterate over all DPUs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (DpuId, &mut Machine)> {
        self.dpus.iter_mut().enumerate().map(|(i, m)| (DpuId(i as u32), m))
    }

    /// Rank table of the system.
    #[must_use]
    pub fn ranks(&self) -> Vec<Rank> {
        let per_rank = (params::DPUS_PER_DIMM / params::RANKS_PER_DIMM) as u32;
        let n = self.dpus.len() as u32;
        (0..n.div_ceil(per_rank))
            .map(|r| Rank {
                index: r,
                first_dpu: r * per_rank,
                dpus: per_rank.min(n - r * per_rank),
            })
            .collect()
    }

    /// Host-memory footprint of the system's MRAM arena.
    ///
    /// Walks every DPU's page table and deduplicates pages by storage
    /// identity, so a weight image broadcast to 2,560 DPUs counts once —
    /// the number that must stay bounded at rank scale.
    #[must_use]
    pub fn mram_residency(&self) -> MramResidency {
        let mut distinct = std::collections::HashSet::new();
        let mut resident_bytes = 0usize;
        let mut resident_pages = 0usize;
        let mut distinct_bytes = 0usize;
        for dpu in &self.dpus {
            for (id, len) in dpu.mram.page_ids() {
                resident_pages += 1;
                resident_bytes += len;
                if distinct.insert(id) {
                    distinct_bytes += len;
                }
            }
        }
        MramResidency {
            logical_bytes: self.dpus.len() * self.params.mram_bytes,
            resident_pages,
            resident_bytes,
            distinct_pages: distinct.len(),
            distinct_bytes,
        }
    }

    /// Host-memory footprint of the system's WRAM: the number of distinct
    /// images by identity, so an image every idle DPU shares counts once.
    #[must_use]
    pub fn wram_images(&self) -> usize {
        let distinct: std::collections::HashSet<_> =
            self.dpus.iter().map(|dpu| dpu.wram.image_id()).collect();
        distinct.len()
    }

    /// Engine residency summed over every DPU (see
    /// [`Machine::engine_stats`]); monotone, so callers diff two readings
    /// taken around a launch.
    #[must_use]
    pub fn engine_stats(&self) -> crate::EngineStats {
        let mut total = crate::EngineStats::default();
        for dpu in &self.dpus {
            total += dpu.engine_stats();
        }
        total
    }

    /// Aggregate power draw in watts (Table 2.1: 120 mW per DPU).
    #[must_use]
    pub fn power_watts(&self) -> f64 {
        self.dpus.len() as f64 * params::DPU_POWER_W
    }

    /// Aggregate DPU silicon area in mm².
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        self.dpus.len() as f64 * params::DPU_AREA_MM2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, Program, Reg};

    #[test]
    fn topology_indices() {
        let id = DpuId(300);
        assert_eq!(id.dimm(), 2); // 300 / 128
        assert_eq!(id.chip(), 37); // 300 / 8
        assert_eq!(id.rank(), 4); // 300 / 64
    }

    #[test]
    fn dpus_are_independent() {
        let mut sys = PimSystem::new(4, DpuParams::default());
        assert_eq!(sys.wram_images(), 1, "one image");
        let p = Program::new(vec![
            Instr::Movi { rd: Reg(1), imm: 7 },
            Instr::Store { width: crate::isa::Width::W, ra: Reg(0), off: 0, rs: Reg(1) },
            Instr::Halt,
        ]);
        sys.dpu_mut(DpuId(2)).run(&p, 1).unwrap();
        assert_eq!(sys.dpu(DpuId(2)).wram.read_u32(0).unwrap(), 7);
        assert_eq!(sys.dpu(DpuId(0)).wram.read_u32(0).unwrap(), 0);
        assert_eq!(sys.wram_images(), 2, "the DPU that ran owns its image");
    }

    #[test]
    fn ranks_cover_all_dpus() {
        let sys = PimSystem::new(100, DpuParams::default());
        let ranks = sys.ranks();
        let total: u32 = ranks.iter().map(|r| r.dpus).sum();
        assert_eq!(total, 100);
        assert_eq!(ranks[0].first_dpu, 0);
        assert_eq!(ranks.last().unwrap().dpus, 100 - 64);
    }

    #[test]
    fn power_and_area_scale_linearly() {
        let sys = PimSystem::new(8, DpuParams::default());
        assert!((sys.power_watts() - 0.96).abs() < 1e-9); // one chip: 0.96 W
        assert!((sys.area_mm2() - 30.0).abs() < 1e-9); // Table 5.4's 30 mm²
    }
}
