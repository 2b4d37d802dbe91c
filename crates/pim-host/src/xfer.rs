//! Scatter/gather transfer batches (`dpu_prepare_xfer` + `dpu_push_xfer`).
//!
//! To send *different* data to each DPU — one GEMM row per DPU in the
//! YOLOv3 mapping, one image batch per DPU in the eBNN mapping — the UPMEM
//! API first attaches a host buffer to each DPU (`dpu_prepare_xfer`,
//! Eq. 3.2) and then pushes them all to a common symbol with a common
//! length (`dpu_push_xfer`, Eq. 3.3). [`XferBatch`] reproduces this
//! two-phase protocol, including its failure modes: pushing with a buffer
//! count that doesn't match the set, or a length violating the 8-byte rule.

use crate::error::{HostError, Result};
use crate::set::DpuSet;
use dpu_sim::DpuId;

/// Transfer direction of a pushed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XferDirection {
    /// Host → DPU MRAM (`DPU_XFER_TO_DPU`).
    ToDpu,
    /// DPU MRAM → host (`DPU_XFER_FROM_DPU`).
    FromDpu,
}

/// A prepared scatter/gather batch.
///
/// Typical use, mirroring the paper's `DPU_FOREACH` + prepare/push idiom:
///
/// ```
/// use pim_host::{DpuSet, XferBatch};
/// use pim_host::xfer::XferDirection;
///
/// let mut set = DpuSet::allocate(2).unwrap();
/// set.define_symbol("row", 16).unwrap();
/// let rows = vec![vec![1u8; 8], vec![2u8; 8]];
///
/// let mut batch = XferBatch::new();
/// for row in &rows {
///     batch.prepare(row.clone());
/// }
/// batch.push(&mut set, "row", 0, 8).unwrap();
/// ```
#[derive(Debug, Default)]
pub struct XferBatch {
    buffers: Vec<Vec<u8>>,
}

impl XferBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach the next DPU's buffer (`dpu_prepare_xfer`). Buffers are
    /// assigned to DPUs in preparation order: the i-th prepared buffer goes
    /// to DPU i.
    pub fn prepare(&mut self, buffer: Vec<u8>) -> &mut Self {
        self.buffers.push(buffer);
        self
    }

    /// Number of buffers prepared so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// True when no buffer has been prepared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Push all prepared buffers to `symbol` at `symbol_offset`
    /// (`dpu_push_xfer` with `DPU_XFER_TO_DPU`). Exactly `len` bytes of each
    /// buffer are sent — the SDK semantics where the push length caps the
    /// per-DPU transfer.
    ///
    /// # Errors
    /// [`HostError::XferArity`] when the batch size differs from the set
    /// size, [`HostError::XferShort`] when a buffer is shorter than `len`
    /// — both found before any DPU is written — and alignment, symbol and
    /// bounds errors as usual.
    pub fn push(
        &self,
        set: &mut DpuSet,
        symbol: &str,
        symbol_offset: usize,
        len: usize,
    ) -> Result<()> {
        self.check_arity(set)?;
        set.copy_each(symbol, symbol_offset, len, |dpu| &self.buffers[dpu.0 as usize])
    }

    /// Gather `len` bytes from `symbol` on every DPU of the set
    /// (`dpu_push_xfer` with `DPU_XFER_FROM_DPU`), returning one buffer per
    /// DPU in DPU order.
    ///
    /// # Errors
    /// Alignment/symbol/bounds errors.
    pub fn gather(
        set: &DpuSet,
        symbol: &str,
        symbol_offset: usize,
        len: usize,
    ) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(set.len());
        for i in 0..set.len() {
            let mut buf = vec![0u8; len];
            set.copy_from_dpu(DpuId(i as u32), symbol, symbol_offset, &mut buf)?;
            out.push(buf);
        }
        Ok(out)
    }

    fn check_arity(&self, set: &DpuSet) -> Result<()> {
        if self.buffers.len() != set.len() {
            return Err(HostError::XferArity { prepared: self.buffers.len(), dpus: set.len() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_assigns_buffers_in_dpu_order() {
        let mut set = DpuSet::allocate(3).unwrap();
        set.define_symbol("row", 8).unwrap();
        let mut b = XferBatch::new();
        for i in 0..3u8 {
            b.prepare(vec![i + 1; 8]);
        }
        b.push(&mut set, "row", 0, 8).unwrap();
        for i in 0..3u32 {
            let mut out = [0u8; 8];
            set.copy_from_dpu(DpuId(i), "row", 0, &mut out).unwrap();
            assert_eq!(out, [(i + 1) as u8; 8]);
        }
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("row", 8).unwrap();
        let mut b = XferBatch::new();
        b.prepare(vec![0; 8]);
        assert!(matches!(
            b.push(&mut set, "row", 0, 8),
            Err(HostError::XferArity { prepared: 1, dpus: 2 })
        ));
    }

    #[test]
    fn push_length_caps_transfer() {
        let mut set = DpuSet::allocate(1).unwrap();
        set.define_symbol("row", 16).unwrap();
        let mut b = XferBatch::new();
        b.prepare(vec![7u8; 16]);
        b.push(&mut set, "row", 0, 8).unwrap();
        let mut out = [0u8; 16];
        set.copy_from_dpu(DpuId(0), "row", 0, &mut out).unwrap();
        assert_eq!(&out[..8], &[7u8; 8]);
        assert_eq!(&out[8..], &[0u8; 8]); // beyond push length untouched
    }

    #[test]
    fn short_buffer_rejected() {
        let mut set = DpuSet::allocate(1).unwrap();
        set.define_symbol("row", 16).unwrap();
        let mut b = XferBatch::new();
        b.prepare(vec![7u8; 4]);
        assert!(b.push(&mut set, "row", 0, 8).is_err());
    }

    #[test]
    fn short_second_buffer_is_reported_before_any_dpu_is_written() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("row", 8).unwrap();
        let mut b = XferBatch::new();
        b.prepare(vec![7u8; 8]).prepare(vec![9u8; 4]);
        let err = b.push(&mut set, "row", 0, 8).unwrap_err();
        assert_eq!(err, HostError::XferShort { dpu: 1, len: 4, push: 8 });
        let mut out = [0xAAu8; 8];
        set.copy_from_dpu(DpuId(0), "row", 0, &mut out).unwrap();
        assert_eq!(out, [0u8; 8], "DPU 0's symbol is untouched");
    }

    #[test]
    fn gather_returns_per_dpu_buffers() {
        let mut set = DpuSet::allocate(2).unwrap();
        set.define_symbol("out", 8).unwrap();
        set.copy_to_dpu(DpuId(0), "out", 0, &[1u8; 8]).unwrap();
        set.copy_to_dpu(DpuId(1), "out", 0, &[2u8; 8]).unwrap();
        let rows = XferBatch::gather(&set, "out", 0, 8).unwrap();
        assert_eq!(rows, vec![vec![1u8; 8], vec![2u8; 8]]);
    }
}
