//! The three DPU memories and the MRAM DMA engine.
//!
//! * **WRAM** — 64 KiB working RAM inside the core; loads and stores cost a
//!   single cycle (one pipeline slot). A copy-on-write image ([`Wram`]) of
//!   dense storage ([`LinearMemory`]): DPUs that never execute share one
//!   image, and a running DPU owns its image outright.
//! * **IRAM** — 24 KiB instruction RAM; the simulator stores the decoded
//!   [`crate::isa::Program`] and only checks the byte footprint.
//! * **MRAM** — 64 MiB DRAM bank outside the core; reachable exclusively via
//!   the DMA engine, which costs `25 + bytes/2` cycles per transfer
//!   (Eq. 3.4 of the paper). Backed by [`CowMemory`]: 64 KiB copy-on-write
//!   pages, so a 2,560-DPU system does not materialize 2,560 × 64 MiB.
//!
//! ## The MRAM arena
//!
//! A real rank's worth of MRAM (40 ranks × 64 DPUs × 64 MiB = 160 GiB)
//! cannot live as dense `Vec<u8>`s. [`CowMemory`] stores MRAM as a page
//! table of `Option<Arc<Vec<u8>>>`, grown to the highest page written:
//!
//! * `None` is the **zero page** — untouched regions cost nothing and read
//!   as zeros, exactly like the dense representation after allocation;
//! * set-wide writes ([`CowMemory::write_shared`]) store **one page** for
//!   all DPUs that started from one page and receive the same bytes
//!   (weight/LUT images and idle DPUs' records are stored once per set);
//! * writes go through [`Arc::make_mut`]: a page shared with a set-wide
//!   write, a snapshot, or another DPU is copied the first time one owner
//!   writes it — O(dirty pages) isolation with no explicit bookkeeping;
//! * [`CowMemory::snapshot`] / [`CowMemory::restore`] clone the page
//!   *table* (pointer bumps), making whole-MRAM snapshots O(pages) instead
//!   of O(capacity) — the resilient retry path leans on this.
//!
//! ## WRAM images
//!
//! WRAM follows the same rule with one 64 KiB page: a [`Wram`] is an
//! `Arc` around its dense bytes. A fresh system's DPUs share one zero
//! image, a snapshot or restore copies a reference, and a host write or a
//! raw bit flip privatizes the image through [`Arc::make_mut`]. A run
//! privatizes once, at its start, and then loads and stores a uniquely
//! owned dense buffer: the interpreter never sees the reference count.
//! A replayed run's write set shares its result between DPUs that started
//! from one image (see `crate::replay`).

use crate::ecc;
use crate::error::{Error, Result};
use crate::isa::Width;
use crate::params;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::ptr;
use std::sync::Arc;

/// Byte-addressed little-endian memory with bounds checking.
///
/// The dense storage behind a [`Wram`] image, and what a running DPU
/// loads and stores (hot in the interpreter loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearMemory {
    kind: &'static str,
    data: Vec<u8>,
}

impl LinearMemory {
    /// Create a zeroed memory of `size` bytes labelled `kind` for error
    /// messages.
    #[must_use]
    pub fn new(kind: &'static str, size: usize) -> Self {
        Self { kind, data: vec![0; size] }
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the capacity is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn check(&self, addr: usize, len: usize) -> Result<()> {
        if addr.checked_add(len).is_none_or(|end| end > self.data.len()) {
            return Err(Error::OutOfBounds { kind: self.kind, addr, len, size: self.data.len() });
        }
        Ok(())
    }

    /// Read `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when the range exceeds capacity.
    pub fn read(&self, addr: usize, buf: &mut [u8]) -> Result<()> {
        self.check(addr, buf.len())?;
        buf.copy_from_slice(&self.data[addr..addr + buf.len()]);
        Ok(())
    }

    /// Write `buf` starting at `addr`.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when the range exceeds capacity.
    pub fn write(&mut self, addr: usize, buf: &[u8]) -> Result<()> {
        self.check(addr, buf.len())?;
        self.data[addr..addr + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    /// Read one byte, zero-extended.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    pub fn read_u8(&self, addr: usize) -> Result<u32> {
        self.check(addr, 1)?;
        Ok(u32::from(self.data[addr]))
    }

    /// Read a little-endian halfword, zero-extended.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    pub fn read_u16(&self, addr: usize) -> Result<u32> {
        self.check(addr, 2)?;
        Ok(u32::from(u16::from_le_bytes([self.data[addr], self.data[addr + 1]])))
    }

    /// Read a little-endian word.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    pub fn read_u32(&self, addr: usize) -> Result<u32> {
        self.check(addr, 4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.data[addr..addr + 4]);
        Ok(u32::from_le_bytes(b))
    }

    /// Write one byte (low 8 bits of `val`).
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    pub fn write_u8(&mut self, addr: usize, val: u32) -> Result<()> {
        self.check(addr, 1)?;
        self.data[addr] = val as u8;
        Ok(())
    }

    /// Write a little-endian halfword (low 16 bits of `val`).
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    pub fn write_u16(&mut self, addr: usize, val: u32) -> Result<()> {
        self.check(addr, 2)?;
        self.data[addr..addr + 2].copy_from_slice(&(val as u16).to_le_bytes());
        Ok(())
    }

    /// Write a little-endian word.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    pub fn write_u32(&mut self, addr: usize, val: u32) -> Result<()> {
        self.check(addr, 4)?;
        self.data[addr..addr + 4].copy_from_slice(&val.to_le_bytes());
        Ok(())
    }

    /// Borrow a byte range.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when the range exceeds capacity.
    pub fn slice(&self, addr: usize, len: usize) -> Result<&[u8]> {
        self.check(addr, len)?;
        Ok(&self.data[addr..addr + len])
    }

    /// Mutably borrow a byte range (the DMA engine lands MRAM reads
    /// directly in WRAM through this, with no intermediate buffer).
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when the range exceeds capacity.
    pub fn slice_mut(&mut self, addr: usize, len: usize) -> Result<&mut [u8]> {
        self.check(addr, len)?;
        Ok(&mut self.data[addr..addr + len])
    }

    /// Load `width` at `addr`, zero-extended: the pipeline's `lb`/`lh`/`lw`.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    #[inline]
    pub fn load(&self, addr: usize, width: Width) -> Result<u32> {
        match width {
            Width::B => self.read_u8(addr),
            Width::H => self.read_u16(addr),
            Width::W => self.read_u32(addr),
        }
    }

    /// Store the low `width` of `val` at `addr`: `sb`/`sh`/`sw`.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    #[inline]
    pub fn store(&mut self, addr: usize, width: Width, val: u32) -> Result<()> {
        match width {
            Width::B => self.write_u8(addr, val),
            Width::H => self.write_u16(addr, val),
            Width::W => self.write_u32(addr, val),
        }
    }

    /// Invert bit `bit & 7` of the byte at `addr`: a storage-cell error
    /// (the fault injector's WRAM entry point).
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when `addr` is out of range.
    pub fn flip_bit(&mut self, addr: usize, bit: u8) -> Result<()> {
        self.check(addr, 1)?;
        self.data[addr] ^= 1 << (bit & 7);
        Ok(())
    }

    /// Zero the whole memory.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }
}

/// Page size of the copy-on-write MRAM arena.
///
/// 64 KiB balances sharing granularity against page-table size: a 64 MiB
/// MRAM is at most 1,024 table entries (8 KiB per DPU at `Option<Arc>`
/// niche size; the table only grows to the highest page written, so a
/// kernel that touches page 0 alone costs one entry).
pub const MRAM_PAGE_BYTES: usize = 64 * 1024;

/// One page of storage (data or sidecar) and a table of them, whose
/// entries past its end are `None`.
type Page = Arc<Vec<u8>>;
type PageTable = Vec<Option<Page>>;

/// Entry `page` of `table`, growing the table to reach it.
fn slot(table: &mut PageTable, page: usize) -> &mut Option<Page> {
    if table.len() <= page {
        table.resize(page + 1, None);
    }
    &mut table[page]
}

/// Page `page` of `table` for writing: materialized as `len` zero bytes
/// if need be, and privatized ([`Arc::make_mut`]) if shared.
fn writable(table: &mut PageTable, page: usize, len: usize) -> &mut Vec<u8> {
    Arc::make_mut(slot(table, page).get_or_insert_with(|| Arc::new(vec![0u8; len])))
}

/// Byte-addressed little-endian memory backed by chunked copy-on-write
/// pages.
///
/// Reads treat unmaterialized pages as zeros; writes materialize (or
/// privatize, via [`Arc::make_mut`]) only the touched pages. Cloning —
/// and [`CowMemory::snapshot`] — copies the page table, not the data, so
/// both cost O(pages) and subsequent writes on either side un-share
/// pages lazily.
#[derive(Debug, Clone)]
pub struct CowMemory {
    kind: &'static str,
    len: usize,
    pages: PageTable,
    /// SEC-DED sidecar: one code byte per aligned 8-byte data word,
    /// stored page-parallel and COW-shared exactly like the data pages
    /// (DPUs that share a data page share its sidecar). `None` is the
    /// all-zero sidecar, which is correct for the zero page
    /// ([`ecc::encode_word`] maps 0 to 0). Empty when ECC is off; while
    /// on, grown alongside `pages` by the writes that refresh it.
    codes: PageTable,
    /// Whether writes maintain the SEC-DED sidecar. Off by default: the
    /// sidecar costs one encode per written word, gated ≤2% by bench.
    ecc: bool,
}

/// What one integrity sweep over a [`CowMemory`] found and repaired.
///
/// Produced by [`CowMemory::scrub`]: every resident page's words are
/// checked against the SEC-DED sidecar, single-bit errors (in data or
/// sidecar) are repaired in place, and multi-bit errors are reported by
/// address — never silently "fixed".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Resident pages swept.
    pub pages: usize,
    /// Words checked across those pages.
    pub words: u64,
    /// Data bits flipped back (storage errors corrected).
    pub corrected_data: u64,
    /// Sidecar bytes rewritten (errors confined to the code).
    pub corrected_code: u64,
    /// Byte addresses of words with uncorrectable (multi-bit) errors.
    pub uncorrectable: Vec<usize>,
}

impl ScrubReport {
    /// Total single-bit corrections (data plus sidecar).
    #[must_use]
    pub fn corrected(&self) -> u64 {
        self.corrected_data + self.corrected_code
    }

    /// True when the sweep found nothing to repair or report.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.corrected() == 0 && self.uncorrectable.is_empty()
    }

    /// Fold another report into this one (for multi-DPU aggregation).
    pub fn merge(&mut self, other: &ScrubReport) {
        self.pages += other.pages;
        self.words += other.words;
        self.corrected_data += other.corrected_data;
        self.corrected_code += other.corrected_code;
        self.uncorrectable.extend_from_slice(&other.uncorrectable);
    }
}

/// O(pages) image of a [`CowMemory`] taken by [`CowMemory::snapshot`].
///
/// Holds the snapshotted pages alive by reference count; the live memory
/// copies-on-write away from them, so a snapshot stays bit-exact no
/// matter what happens to the memory afterwards.
#[derive(Debug, Clone)]
pub struct MemorySnapshot {
    len: usize,
    pages: PageTable,
    codes: PageTable,
    ecc: bool,
}

impl MemorySnapshot {
    /// Capacity of the snapshotted memory in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the snapshotted memory had zero capacity.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Materialized pages the snapshot pins (the rest are zero pages).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

/// The page walk under [`CowMemory::read`], [`CowMemory::write`] and
/// `holds`: the `len`-byte range at `addr`, cut at page boundaries, as
/// `(page, offset in page, bytes of the range)` pieces in address order.
/// The caller bounds-checks first, so no piece runs past a short last
/// page.
fn page_spans(addr: usize, len: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = addr + done;
            let (page, off) = (at / MRAM_PAGE_BYTES, at % MRAM_PAGE_BYTES);
            let take = (MRAM_PAGE_BYTES - off).min(len - done);
            done += take;
            (page, off, done - take..done)
        })
    })
}

impl CowMemory {
    /// Create a zeroed memory of `size` bytes labelled `kind` for error
    /// messages. Nothing is materialized, not even the page table: a fresh
    /// 64 MiB MRAM costs nothing until it is written.
    #[must_use]
    pub fn new(kind: &'static str, size: usize) -> Self {
        Self { kind, len: size, pages: Vec::new(), codes: Vec::new(), ecc: false }
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the capacity is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte length of page `page` (the last page of a non-multiple
    /// capacity is short).
    fn page_len(&self, page: usize) -> usize {
        MRAM_PAGE_BYTES.min(self.len - page * MRAM_PAGE_BYTES)
    }

    /// Data (or sidecar) page `page`, if materialized.
    fn page(&self, page: usize) -> Option<&Page> {
        self.pages.get(page).and_then(Option::as_ref)
    }
    fn code(&self, page: usize) -> Option<&Page> {
        self.codes.get(page).and_then(Option::as_ref)
    }

    /// Bounds-check a byte range without touching it.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when the range exceeds capacity.
    pub fn check_range(&self, addr: usize, len: usize) -> Result<()> {
        if addr.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(Error::OutOfBounds { kind: self.kind, addr, len, size: self.len });
        }
        Ok(())
    }

    /// Materialize (and privatize) data (or sidecar) page `page` for
    /// writing.
    fn page_mut(&mut self, page: usize) -> &mut Vec<u8> {
        let len = self.page_len(page);
        writable(&mut self.pages, page, len)
    }
    fn code_mut(&mut self, page: usize) -> &mut Vec<u8> {
        let words = self.page_len(page).div_ceil(ecc::WORD_BYTES);
        writable(&mut self.codes, page, words)
    }

    /// Read `buf.len()` bytes starting at `addr`. Zero pages read as
    /// zeros.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when the range exceeds capacity.
    pub fn read(&self, addr: usize, buf: &mut [u8]) -> Result<()> {
        self.check_range(addr, buf.len())?;
        for (page, off, span) in page_spans(addr, buf.len()) {
            let dst = &mut buf[span];
            match self.page(page) {
                Some(data) => dst.copy_from_slice(&data[off..off + dst.len()]),
                None => dst.fill(0),
            }
        }
        Ok(())
    }

    /// Whether the memory holds exactly `expect` at `addr` (false when the
    /// range exceeds capacity). Compares page by page without copying;
    /// zero pages hold zeros.
    pub(crate) fn holds(&self, addr: usize, expect: &[u8]) -> bool {
        self.check_range(addr, expect.len()).is_ok()
            && page_spans(addr, expect.len()).all(|(page, off, span)| {
                let want = &expect[span];
                match self.page(page) {
                    Some(data) => data[off..off + want.len()] == *want,
                    None => want.iter().all(|&b| b == 0),
                }
            })
    }

    /// Write `buf` starting at `addr`, materializing or privatizing the
    /// touched pages.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when the range exceeds capacity.
    pub fn write(&mut self, addr: usize, buf: &[u8]) -> Result<()> {
        self.check_range(addr, buf.len())?;
        for (page, off, span) in page_spans(addr, buf.len()) {
            let src = &buf[span];
            self.page_mut(page)[off..off + src.len()].copy_from_slice(src);
            if self.ecc {
                self.refresh_codes(page, off, src.len());
            }
        }
        Ok(())
    }

    /// A set-wide write: each `(memory, bytes)` leg, in order, writes its
    /// bytes at `addr`. A leg whose touched pages are the storage the
    /// previous leg started from (or both zero pages), writing the same
    /// bytes with ECC in the same state, takes the previous leg's
    /// resulting pages and sidecars by reference: writing would produce
    /// them byte for byte. The other legs are [`CowMemory::write`]s. A
    /// later differing write privatizes a shared page, so sharing is
    /// invisible. `legs` must write no memory itself: then each page a leg
    /// starts from lives until the next leg compares with it, so equal
    /// addresses mean one storage.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when the range exceeds a leg's capacity; the
    /// legs before it are written.
    pub fn write_shared<'a, 'm>(
        addr: usize,
        legs: impl IntoIterator<Item = (&'m mut CowMemory, &'a [u8])>,
    ) -> Result<()> {
        let start = |m: &Self, page| m.page(page).map(|p| Arc::as_ptr(p) as usize);
        // The previous leg's bytes and ECC state, and per page the storage
        // it started from and the data page and sidecar it ended with.
        let mut last: Option<(&[u8], bool)> = None;
        let mut ended: Vec<(Option<usize>, Page, Option<Page>)> = Vec::new();
        for (m, buf) in legs {
            m.check_range(addr, buf.len())?;
            let spans = || page_spans(addr, buf.len()).map(|(page, ..)| page);
            let same = last.is_some_and(|(b, ecc)| ecc == m.ecc && (ptr::eq(b, buf) || b == buf));
            if same && spans().zip(&ended).all(|(page, (from, ..))| start(m, page) == *from) {
                for (page, (_, data, code)) in spans().zip(&ended) {
                    *slot(&mut m.pages, page) = Some(Arc::clone(data));
                    if m.ecc {
                        *slot(&mut m.codes, page) = code.clone();
                    }
                }
                continue;
            }
            let from: Vec<_> = spans().map(|page| start(m, page)).collect();
            m.write(addr, buf)?;
            let result = |(p, from)| (from, Arc::clone(m.page(p).unwrap()), m.code(p).cloned());
            ended = spans().zip(from).map(result).collect();
            last = Some((buf, m.ecc));
        }
        Ok(())
    }

    /// Re-encode the sidecar for every word overlapping `[off, off+len)`
    /// of page `page` (which must already be materialized). The write
    /// path calls this after each legitimate store so the sidecar always
    /// reflects the intended data.
    fn refresh_codes(&mut self, page: usize, off: usize, len: usize) {
        let words = self.page_len(page).div_ceil(ecc::WORD_BYTES);
        let w0 = off / ecc::WORD_BYTES;
        let w1 = (off + len).div_ceil(ecc::WORD_BYTES).min(words);
        let (pages, codes) = (&self.pages, &mut self.codes);
        let data = pages[page].as_deref().expect("data page materialized before code refresh");
        for (i, c) in writable(codes, page, words)[w0..w1].iter_mut().enumerate() {
            *c = ecc::encode_word(ecc::word_at(data, (w0 + i) * ecc::WORD_BYTES));
        }
    }

    /// Copy a byte range out into a fresh vector (the paged replacement
    /// for `slice().to_vec()` — pages are not contiguous, so there is no
    /// borrowed whole-range view).
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when the range exceeds capacity.
    pub fn to_vec(&self, addr: usize, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.read(addr, &mut buf)?;
        Ok(buf)
    }

    /// Read one byte, zero-extended.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    pub fn read_u8(&self, addr: usize) -> Result<u32> {
        self.check_range(addr, 1)?;
        Ok(self
            .page(addr / MRAM_PAGE_BYTES)
            .map_or(0, |data| u32::from(data[addr % MRAM_PAGE_BYTES])))
    }

    /// Read a little-endian halfword, zero-extended.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    pub fn read_u16(&self, addr: usize) -> Result<u32> {
        let mut b = [0u8; 2];
        self.read(addr, &mut b)?;
        Ok(u32::from(u16::from_le_bytes(b)))
    }

    /// Read a little-endian word.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    pub fn read_u32(&self, addr: usize) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Write one byte (low 8 bits of `val`).
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    pub fn write_u8(&mut self, addr: usize, val: u32) -> Result<()> {
        self.check_range(addr, 1)?;
        let (page, off) = (addr / MRAM_PAGE_BYTES, addr % MRAM_PAGE_BYTES);
        self.page_mut(page)[off] = val as u8;
        if self.ecc {
            self.refresh_codes(page, off, 1);
        }
        Ok(())
    }

    /// Invert one **stored** bit without maintaining the SEC-DED
    /// sidecar — the model of a storage-cell error (and the injector's
    /// entry point). The touched page is privatized first, so a flip on
    /// a COW-shared page corrupts only this memory's mapping, never the
    /// other DPUs sharing the storage.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when `addr` is out of range.
    pub fn flip_bit_raw(&mut self, addr: usize, bit: u8) -> Result<()> {
        self.check_range(addr, 1)?;
        let off = addr % MRAM_PAGE_BYTES;
        self.page_mut(addr / MRAM_PAGE_BYTES)[off] ^= 1 << (bit & 7);
        Ok(())
    }

    /// Write a little-endian halfword (low 16 bits of `val`).
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    pub fn write_u16(&mut self, addr: usize, val: u32) -> Result<()> {
        self.write(addr, &(val as u16).to_le_bytes())
    }

    /// Write a little-endian word.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when out of range.
    pub fn write_u32(&mut self, addr: usize, val: u32) -> Result<()> {
        self.write(addr, &val.to_le_bytes())
    }

    /// Zero the whole memory by dropping every page back to the zero
    /// page — O(pages), and frees (or un-shares) the storage.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.codes.clear();
    }

    /// Take an O(pages) snapshot: clones the page table (and the ECC
    /// sidecar table), bumping each materialized page's reference count.
    /// Writes after the snapshot copy-on-write away from it.
    #[must_use]
    pub fn snapshot(&self) -> MemorySnapshot {
        MemorySnapshot {
            len: self.len,
            pages: self.pages.clone(),
            codes: self.codes.clone(),
            ecc: self.ecc,
        }
    }

    /// Restore the exact image captured by [`CowMemory::snapshot`] —
    /// O(pages) pointer assignments, regardless of how much was written
    /// since.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] when the snapshot came from a memory of a
    /// different capacity.
    pub fn restore(&mut self, snap: &MemorySnapshot) -> Result<()> {
        if snap.len != self.len {
            return Err(Error::OutOfBounds {
                kind: self.kind,
                addr: 0,
                len: snap.len,
                size: self.len,
            });
        }
        self.pages.clone_from(&snap.pages);
        self.codes.clone_from(&snap.codes);
        self.ecc = snap.ecc;
        Ok(())
    }

    /// Whether the SEC-DED sidecar is being maintained.
    #[must_use]
    pub fn ecc_enabled(&self) -> bool {
        self.ecc
    }

    /// Turn the SEC-DED sidecar on or off. Enabling encodes every
    /// resident page (a one-time O(resident bytes) sweep); disabling
    /// drops the sidecar storage and its table.
    pub fn set_ecc(&mut self, on: bool) {
        Self::set_ecc_shared(on, [self]);
    }

    /// [`CowMemory::set_ecc`] on every memory of `mems`, encoding each
    /// distinct data page once: memories that share a page share its
    /// sidecar.
    pub fn set_ecc_shared<'m>(on: bool, mems: impl IntoIterator<Item = &'m mut CowMemory>) {
        let mut encoded = HashMap::new();
        for m in mems.into_iter().filter(|m| m.ecc != on) {
            m.ecc = on;
            let mut code = |data: &Page| {
                let key = Arc::as_ptr(data) as usize;
                Arc::clone(encoded.entry(key).or_insert_with(|| Arc::new(ecc::encode_page(data))))
            };
            m.codes = if on {
                m.pages.iter().map(|p| p.as_ref().map(&mut code)).collect()
            } else {
                Vec::new()
            };
        }
    }

    /// Bytes of materialized sidecar storage (shared sidecars counted at
    /// full size, mirroring [`CowMemory::resident_bytes`]).
    #[must_use]
    pub fn ecc_resident_bytes(&self) -> usize {
        self.codes.iter().flatten().map(|p| p.len()).sum()
    }

    /// Check every word overlapping `[addr, addr+len)` against the
    /// sidecar, repairing single-bit errors (data or code) in place.
    /// Returns the number of corrections. No-op when ECC is off.
    ///
    /// The DMA engine calls this on the source range of every
    /// MRAM→WRAM read, so storage errors are caught *before* the kernel
    /// consumes them.
    ///
    /// # Errors
    /// [`Error::EccUncorrectable`] on the first multi-bit word error;
    /// [`Error::OutOfBounds`] when the range exceeds capacity.
    pub fn verify_range(&mut self, addr: usize, len: usize) -> Result<u64> {
        if !self.ecc || len == 0 {
            return Ok(0);
        }
        self.check_range(addr, len)?;
        let mut corrected = 0u64;
        let first_word = addr / ecc::WORD_BYTES;
        let last_word = (addr + len - 1) / ecc::WORD_BYTES;
        let mut w = first_word;
        while w <= last_word {
            let at = w * ecc::WORD_BYTES;
            let page = at / MRAM_PAGE_BYTES;
            if self.page(page).is_none() {
                // Zero page: sidecar is the (implicit) zero sidecar.
                w = ((page + 1) * MRAM_PAGE_BYTES) / ecc::WORD_BYTES;
                continue;
            }
            corrected += self.verify_word(at)?;
            w += 1;
        }
        Ok(corrected)
    }

    /// Decode one word against its sidecar byte, repairing in place.
    fn verify_word(&mut self, at: usize) -> Result<u64> {
        let (page, off) = (at / MRAM_PAGE_BYTES, at % MRAM_PAGE_BYTES);
        let w = off / ecc::WORD_BYTES;
        let data = self.page(page).expect("resident page");
        let word = ecc::word_at(data, off);
        let code = self.code(page).map_or(0, |c| c[w]);
        match ecc::decode_word(word, code) {
            ecc::Decode::Clean => Ok(0),
            ecc::Decode::CorrectedData(bit) => {
                let byte = off + (bit / 8) as usize;
                if byte >= data.len() {
                    // A ≥3-bit error aliased onto a padded tail position:
                    // not actually correctable.
                    return Err(Error::EccUncorrectable { addr: at });
                }
                self.page_mut(page)[byte] ^= 1 << (bit % 8);
                Ok(1)
            }
            ecc::Decode::CorrectedCode => {
                self.code_mut(page)[w] = ecc::encode_word(word);
                Ok(1)
            }
            ecc::Decode::Uncorrectable => Err(Error::EccUncorrectable { addr: at }),
        }
    }

    /// Sweep every resident page, repairing single-bit errors and
    /// reporting multi-bit ones. The scrubber's core: the host runs this
    /// between launches (and the resilient path after each fault-armed
    /// attempt) so storage errors are swept up without consuming a
    /// retry. No-op when ECC is off.
    pub fn scrub(&mut self) -> ScrubReport {
        Self::scrub_shared([self])
    }

    /// [`CowMemory::scrub`] on every memory of `mems`, merged, decoding
    /// each distinct (data page, sidecar) pair once: a clean pair met
    /// again counts without a decode, so the report reads what scrubbing
    /// each memory alone reads. A repair privatizes its page.
    pub fn scrub_shared<'m>(mems: impl IntoIterator<Item = &'m mut CowMemory>) -> ScrubReport {
        let (mut swept, mut rep) = (HashSet::new(), ScrubReport::default());
        for m in mems.into_iter().filter(|m| m.ecc) {
            for page in 0..m.pages.len() {
                let Some(data) = m.page(page) else { continue };
                rep.pages += 1;
                let words = data.len().div_ceil(ecc::WORD_BYTES);
                rep.words += words as u64;
                let code = m.code(page);
                let pair =
                    (Arc::as_ptr(data) as usize, code.map_or(0, |c| Arc::as_ptr(c) as usize));
                if swept.contains(&pair) {
                    continue;
                }
                let mut fixes: Vec<(usize, ecc::Decode)> = Vec::new();
                for w in 0..words {
                    let word = ecc::word_at(data, w * ecc::WORD_BYTES);
                    let stored = code.map_or(0, |c| c[w]);
                    match ecc::decode_word(word, stored) {
                        ecc::Decode::Clean => {}
                        d => fixes.push((w, d)),
                    }
                }
                if fixes.is_empty() {
                    swept.insert(pair);
                }
                for (w, d) in fixes {
                    let at = page * MRAM_PAGE_BYTES + w * ecc::WORD_BYTES;
                    match d {
                        ecc::Decode::Clean => {}
                        ecc::Decode::CorrectedData(bit) => {
                            let off = w * ecc::WORD_BYTES + (bit / 8) as usize;
                            if off >= m.page_len(page) {
                                rep.uncorrectable.push(at);
                                continue;
                            }
                            m.page_mut(page)[off] ^= 1 << (bit % 8);
                            rep.corrected_data += 1;
                        }
                        ecc::Decode::CorrectedCode => {
                            let word = ecc::word_at(
                                m.page(page).expect("resident page"),
                                w * ecc::WORD_BYTES,
                            );
                            m.code_mut(page)[w] = ecc::encode_word(word);
                            rep.corrected_code += 1;
                        }
                        ecc::Decode::Uncorrectable => rep.uncorrectable.push(at),
                    }
                }
            }
        }
        rep
    }

    /// Materialized pages (zero pages cost nothing).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Bytes of materialized page storage reachable from this memory,
    /// counting shared pages at full size (see
    /// [`crate::PimSystem::mram_residency`] for the deduplicated
    /// system-wide figure).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.pages.iter().flatten().map(|p| p.len()).sum()
    }

    /// Stable identities of the materialized pages (the page storage's
    /// address), for deduplicated accounting across DPUs that share
    /// pages written set-wide or restored from one snapshot.
    pub fn page_ids(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pages.iter().flatten().map(|p| (Arc::as_ptr(p) as usize, p.len()))
    }
}

/// Logical content equality: a zero page (or a missing table entry)
/// equals a materialized page of zeros, and shared pages short-circuit by
/// pointer.
impl PartialEq for CowMemory {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && (0..self.pages.len().max(other.pages.len())).all(|p| {
                match (self.page(p), other.page(p)) {
                    (None, None) => true,
                    (Some(x), Some(y)) => Arc::ptr_eq(x, y) || x == y,
                    (Some(x), None) | (None, Some(x)) => x.iter().all(|&byte| byte == 0),
                }
            })
    }
}

impl Eq for CowMemory {}

/// 64 KiB working RAM (single-cycle access from the pipeline) as a
/// copy-on-write image.
///
/// Reads go straight through [`std::ops::Deref`] to the dense
/// [`LinearMemory`]. Every mutable access goes through
/// [`Arc::make_mut`], exactly like a write to a shared MRAM page: an
/// image shared with a snapshot, a replayed result or another DPU is
/// copied the first time one owner writes it. Cloning copies a reference.
/// Equality compares content (`Arc`'s, which one image short-circuits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wram(pub(crate) Arc<LinearMemory>);

impl Wram {
    /// A zeroed WRAM of `bytes` capacity.
    #[must_use]
    pub fn new(bytes: usize) -> Self {
        Self(Arc::new(LinearMemory::new("WRAM", bytes)))
    }

    /// Stable identity of the image (its storage's address), for
    /// deduplicated accounting across DPUs that share one.
    #[must_use]
    pub fn image_id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// Move the image out for a run: privatized (copied if shared), once,
    /// and left as an empty placeholder until [`Wram::put`] returns it.
    pub(crate) fn take(&mut self) -> LinearMemory {
        std::mem::replace(Arc::make_mut(&mut self.0), LinearMemory::new("WRAM", 0))
    }

    /// Return the image [`Wram::take`] moved out.
    pub(crate) fn put(&mut self, dense: LinearMemory) {
        *Arc::make_mut(&mut self.0) = dense;
    }
}

impl Default for Wram {
    fn default() -> Self {
        Self::new(params::WRAM_BYTES)
    }
}

impl std::ops::Deref for Wram {
    type Target = LinearMemory;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl std::ops::DerefMut for Wram {
    fn deref_mut(&mut self) -> &mut Self::Target {
        Arc::make_mut(&mut self.0)
    }
}

/// 64 MiB main RAM, reachable only via [`DmaEngine`] from the DPU side and
/// via host transfers from the CPU side. Paged copy-on-write storage —
/// see [`CowMemory`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mram(pub CowMemory);

impl Mram {
    /// An MRAM of the given capacity.
    #[must_use]
    pub fn new(bytes: usize) -> Self {
        Self(CowMemory::new("MRAM", bytes))
    }
}

impl Default for Mram {
    fn default() -> Self {
        Self::new(params::MRAM_BYTES)
    }
}

impl std::ops::Deref for Mram {
    type Target = CowMemory;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl std::ops::DerefMut for Mram {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// The DMA engine connecting MRAM and WRAM.
///
/// Every transfer is charged `setup + ceil(bytes / bytes_per_cycle)` cycles
/// (Eq. 3.4: 25 + bytes/2 with the default parameters) and is limited to
/// [`params::DMA_MAX_TRANSFER_BYTES`] bytes, which is what caps the paper's
/// eBNN batches at 16 images (§4.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaEngine {
    setup_cycles: u64,
    bytes_per_cycle: u64,
    max_transfer: usize,
    /// Total cycles spent in DMA so far (statistics).
    pub total_cycles: u64,
    /// Total bytes moved so far (statistics).
    pub total_bytes: u64,
    /// Number of transfers issued (statistics).
    pub transfers: u64,
}

impl DmaEngine {
    /// Engine with the given setup cost and streaming rate.
    #[must_use]
    pub fn new(setup_cycles: u64, bytes_per_cycle: u64, max_transfer: usize) -> Self {
        Self {
            setup_cycles,
            bytes_per_cycle,
            max_transfer,
            total_cycles: 0,
            total_bytes: 0,
            transfers: 0,
        }
    }

    /// The engine without its statistics: setup cost, streaming rate and
    /// transfer limit.
    pub(crate) fn timing(&self) -> (u64, u64, usize) {
        (self.setup_cycles, self.bytes_per_cycle, self.max_transfer)
    }

    /// Cycle cost of a transfer of `bytes` bytes (Eq. 3.4).
    #[must_use]
    pub fn cycles_for(&self, bytes: usize) -> u64 {
        self.setup_cycles + (bytes as u64).div_ceil(self.bytes_per_cycle)
    }

    /// Move `len` bytes MRAM→WRAM, returning the cycle cost. The bytes
    /// land directly in the WRAM slice — no intermediate buffer.
    ///
    /// # Errors
    /// [`Error::DmaTooLarge`] beyond the transfer limit, or
    /// [`Error::OutOfBounds`] from either memory.
    pub fn read(
        &mut self,
        mram: &Mram,
        wram: &mut LinearMemory,
        mram_addr: usize,
        wram_addr: usize,
        len: usize,
    ) -> Result<u64> {
        self.check_len(len)?;
        mram.check_range(mram_addr, len)?;
        mram.read(mram_addr, wram.slice_mut(wram_addr, len)?)?;
        Ok(self.account(len))
    }

    /// Move `len` bytes WRAM→MRAM, returning the cycle cost. The bytes
    /// come straight out of the WRAM slice — no intermediate buffer.
    ///
    /// # Errors
    /// [`Error::DmaTooLarge`] beyond the transfer limit, or
    /// [`Error::OutOfBounds`] from either memory.
    pub fn write(
        &mut self,
        mram: &mut Mram,
        wram: &LinearMemory,
        mram_addr: usize,
        wram_addr: usize,
        len: usize,
    ) -> Result<u64> {
        self.check_len(len)?;
        mram.write(mram_addr, wram.slice(wram_addr, len)?)?;
        Ok(self.account(len))
    }

    fn check_len(&self, len: usize) -> Result<()> {
        if len > self.max_transfer {
            return Err(Error::DmaTooLarge { requested: len, limit: self.max_transfer });
        }
        Ok(())
    }

    fn account(&mut self, len: usize) -> u64 {
        let cycles = self.cycles_for(len);
        self.total_cycles += cycles;
        self.total_bytes += len as u64;
        self.transfers += 1;
        cycles
    }
}

impl Default for DmaEngine {
    fn default() -> Self {
        Self::new(
            params::DMA_SETUP_CYCLES,
            params::DMA_BYTES_PER_CYCLE,
            params::DMA_MAX_TRANSFER_BYTES,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_round_trip_all_widths() {
        let mut m = LinearMemory::new("WRAM", 64);
        m.write_u32(0, 0xdead_beef).unwrap();
        assert_eq!(m.read_u32(0).unwrap(), 0xdead_beef);
        assert_eq!(m.read_u16(0).unwrap(), 0xbeef);
        assert_eq!(m.read_u8(3).unwrap(), 0xde);
        m.write_u16(8, 0x1234_5678).unwrap();
        assert_eq!(m.read_u16(8).unwrap(), 0x5678);
        m.write_u8(10, 0xAB).unwrap();
        assert_eq!(m.read_u8(10).unwrap(), 0xAB);
    }

    #[test]
    fn cow_rw_round_trip_all_widths() {
        let mut m = CowMemory::new("MRAM", MRAM_PAGE_BYTES * 2);
        m.write_u32(0, 0xdead_beef).unwrap();
        assert_eq!(m.read_u32(0).unwrap(), 0xdead_beef);
        assert_eq!(m.read_u16(0).unwrap(), 0xbeef);
        assert_eq!(m.read_u8(3).unwrap(), 0xde);
        m.write_u16(8, 0x1234_5678).unwrap();
        assert_eq!(m.read_u16(8).unwrap(), 0x5678);
        m.write_u8(10, 0xAB).unwrap();
        assert_eq!(m.read_u8(10).unwrap(), 0xAB);
    }

    #[test]
    fn bounds_are_enforced() {
        let m = LinearMemory::new("MRAM", 16);
        assert!(matches!(m.read_u32(13), Err(Error::OutOfBounds { .. })));
        assert!(matches!(m.read_u32(usize::MAX), Err(Error::OutOfBounds { .. })));
        let mut m2 = LinearMemory::new("MRAM", 16);
        assert!(m2.write(12, &[0; 8]).is_err());
        assert!(m2.write(12, &[0; 4]).is_ok());
    }

    #[test]
    fn cow_bounds_are_enforced() {
        let m = CowMemory::new("MRAM", 16);
        assert!(matches!(m.read_u32(13), Err(Error::OutOfBounds { .. })));
        assert!(matches!(m.read_u32(usize::MAX), Err(Error::OutOfBounds { .. })));
        let mut m2 = CowMemory::new("MRAM", 16);
        assert!(m2.write(12, &[0; 8]).is_err());
        assert!(m2.write(12, &[0; 4]).is_ok());
    }

    #[test]
    fn cow_zero_pages_read_as_zeros_without_materializing() {
        let m = CowMemory::new("MRAM", params::MRAM_BYTES);
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.read_u32(63 * 1024 * 1024).unwrap(), 0);
        let mut buf = [7u8; 32];
        m.read(params::MRAM_BYTES - 32, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 32]);
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn cow_writes_materialize_only_touched_pages() {
        let mut m = CowMemory::new("MRAM", params::MRAM_BYTES);
        m.write(3 * MRAM_PAGE_BYTES + 17, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.resident_bytes(), MRAM_PAGE_BYTES);
        // Spanning a page boundary touches both pages.
        m.write(MRAM_PAGE_BYTES - 2, &[9; 8]).unwrap();
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(m.read_u8(MRAM_PAGE_BYTES - 1).unwrap(), 9);
        assert_eq!(m.read_u8(MRAM_PAGE_BYTES + 5).unwrap(), 9);
        assert_eq!(m.read_u8(MRAM_PAGE_BYTES + 6).unwrap(), 0);
    }

    #[test]
    fn cow_cross_page_round_trip() {
        let mut m = CowMemory::new("MRAM", MRAM_PAGE_BYTES * 3);
        let data: Vec<u8> = (0..(MRAM_PAGE_BYTES + 100)).map(|i| (i % 251) as u8).collect();
        m.write(MRAM_PAGE_BYTES - 50, &data).unwrap();
        assert_eq!(m.to_vec(MRAM_PAGE_BYTES - 50, data.len()).unwrap(), data);
        assert!(m.holds(MRAM_PAGE_BYTES - 50, &data));

        // Ranges straddling a zero page and a materialized one, both ways
        // round: only page 1 of three is ever written.
        let mut m = CowMemory::new("MRAM", MRAM_PAGE_BYTES * 3);
        m.write(MRAM_PAGE_BYTES, &[7; 8]).unwrap();
        m.write(2 * MRAM_PAGE_BYTES - 8, &[9; 8]).unwrap();
        assert_eq!(m.resident_pages(), 1);
        let into = [[0u8; 8], [7; 8]].concat(); // zero page 0 → page 1
        let out_of = [[9u8; 8], [0; 8]].concat(); // page 1 → zero page 2
        assert!(m.holds(MRAM_PAGE_BYTES - 8, &into));
        assert!(m.holds(2 * MRAM_PAGE_BYTES - 8, &out_of));
        for wrong in [0, 8] {
            // One wrong byte on either side of the boundary.
            let mut into = into.clone();
            into[wrong] ^= 1;
            assert!(!m.holds(MRAM_PAGE_BYTES - 8, &into), "byte {wrong}");
            let mut out_of = out_of.clone();
            out_of[wrong] ^= 1;
            assert!(!m.holds(2 * MRAM_PAGE_BYTES - 8, &out_of), "byte {wrong}");
        }
        assert_eq!(m.resident_pages(), 1, "holds never materializes");
    }

    #[test]
    fn cow_short_last_page() {
        let mut m = CowMemory::new("MRAM", MRAM_PAGE_BYTES + 10);
        m.write(MRAM_PAGE_BYTES + 2, &[5; 8]).unwrap();
        assert_eq!(m.read_u8(MRAM_PAGE_BYTES + 9).unwrap(), 5);
        assert!(m.write(MRAM_PAGE_BYTES + 3, &[5; 8]).is_err());
        assert_eq!(m.resident_bytes(), 10);

        // Ranges that end exactly on the short last page's last byte, one
        // of them reaching back across the page boundary.
        let mut tail = vec![0u8; 4];
        tail.extend_from_slice(&[0, 0, 5, 5, 5, 5, 5, 5, 5, 5]);
        assert!(m.holds(MRAM_PAGE_BYTES - 4, &tail));
        assert!(m.holds(MRAM_PAGE_BYTES + 2, &[5; 8]));
        assert!(!m.holds(MRAM_PAGE_BYTES + 2, &[5, 5, 5, 5, 5, 5, 5, 4]));
        assert!(!m.holds(MRAM_PAGE_BYTES + 3, &[5; 8]), "past capacity");
        assert_eq!(m.to_vec(MRAM_PAGE_BYTES - 4, tail.len()).unwrap(), tail);
    }

    #[test]
    fn cow_snapshot_restores_exact_image_in_o_pages() {
        let mut m = CowMemory::new("MRAM", MRAM_PAGE_BYTES * 4);
        m.write(10, b"original").unwrap();
        m.write(2 * MRAM_PAGE_BYTES, &[3; 64]).unwrap();
        let before = m.to_vec(0, m.len()).unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.resident_pages(), 2);
        m.write(10, b"clobber!").unwrap();
        m.write(3 * MRAM_PAGE_BYTES, &[8; 16]).unwrap();
        m.restore(&snap).unwrap();
        assert_eq!(m.to_vec(0, m.len()).unwrap(), before);
        // Restoring did not rematerialize anything beyond the snapshot.
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn cow_snapshot_is_immune_to_later_writes() {
        let mut m = CowMemory::new("MRAM", MRAM_PAGE_BYTES);
        m.write(0, &[1; 8]).unwrap();
        let snap = m.snapshot();
        m.write(0, &[2; 8]).unwrap(); // must copy-on-write, not mutate the snapshot
        m.restore(&snap).unwrap();
        assert_eq!(m.to_vec(0, 8).unwrap(), vec![1; 8]);
    }

    #[test]
    fn cow_restore_rejects_capacity_mismatch() {
        let small = CowMemory::new("MRAM", 16);
        let mut big = CowMemory::new("MRAM", 32);
        assert!(big.restore(&small.snapshot()).is_err());
    }

    /// One set-wide write of `buf` at `addr` over `mems`, in order.
    fn write_all<const N: usize>(mems: [&mut CowMemory; N], addr: usize, buf: &[u8]) {
        CowMemory::write_shared(addr, mems.map(|m| (m, buf))).unwrap();
    }

    #[test]
    fn shared_write_shares_storage_until_written() {
        let page = vec![0xCD; MRAM_PAGE_BYTES];
        let mut a = CowMemory::new("MRAM", MRAM_PAGE_BYTES * 2);
        let mut b = CowMemory::new("MRAM", MRAM_PAGE_BYTES * 2);
        let mut c = CowMemory::new("MRAM", MRAM_PAGE_BYTES * 2);
        c.write_u8(MRAM_PAGE_BYTES + 12, 9).unwrap();
        write_all([&mut a, &mut b, &mut c], 0, &page);
        let a_ids: Vec<_> = a.page_ids().collect();
        assert_eq!(a_ids, b.page_ids().collect::<Vec<_>>(), "one storage backs both");
        assert_eq!(a_ids.len(), 1, "the table grows only to the page written");
        // A partial page shares too, while the DPUs start from one storage;
        // `c`'s page 1 differs, so `c` writes its own.
        write_all([&mut a, &mut b, &mut c], MRAM_PAGE_BYTES - 8, &[7; 16]);
        assert_eq!(a.page_ids().collect::<Vec<_>>(), b.page_ids().collect::<Vec<_>>());
        assert_ne!(a.page_ids().nth(1), c.page_ids().nth(1));
        assert_eq!(c.read_u8(MRAM_PAGE_BYTES + 12).unwrap(), 9);
        assert_eq!(a.read_u8(MRAM_PAGE_BYTES + 12).unwrap(), 0);
        // Writing through one memory privatizes its copy only.
        a.write_u8(5, 0x11).unwrap();
        assert_eq!(a.read_u8(5).unwrap(), 0x11);
        assert_eq!(b.read_u8(5).unwrap(), 0xCD);
        assert_ne!(a.page_ids().next(), b.page_ids().next());
        // Different bytes, or a different address, are written per memory.
        let legs = [(&mut a, &[1u8; 8][..]), (&mut b, &[2; 8])];
        CowMemory::write_shared(64, legs).unwrap();
        assert_eq!((a.read_u8(64).unwrap(), b.read_u8(64).unwrap()), (1, 2));
        assert!(CowMemory::write_shared(2 * MRAM_PAGE_BYTES, [(&mut a, &[1u8; 8][..])]).is_err());
    }

    #[test]
    fn cow_logical_equality_ignores_representation() {
        let mut a = CowMemory::new("MRAM", MRAM_PAGE_BYTES * 2);
        let b = CowMemory::new("MRAM", MRAM_PAGE_BYTES * 2);
        assert_eq!(a, b);
        // A materialized page of zeros still equals the zero page.
        a.write_u8(0, 7).unwrap();
        a.write_u8(0, 0).unwrap();
        assert_eq!(a.resident_pages(), 1);
        assert_eq!(a, b);
        a.write_u8(1, 1).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, CowMemory::new("MRAM", MRAM_PAGE_BYTES));
    }

    #[test]
    fn cow_clear_drops_to_zero_pages() {
        let mut m = CowMemory::new("MRAM", MRAM_PAGE_BYTES * 2);
        m.write(100, &[1; 64]).unwrap();
        m.clear();
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.read_u32(100).unwrap(), 0);
    }

    #[test]
    fn dma_cost_and_stats() {
        let mut dma = DmaEngine::default();
        let mram = Mram::new(4096);
        let mut wram = Wram::new(4096);
        let cycles = dma.read(&mram, &mut wram, 0, 0, 2048).unwrap();
        assert_eq!(cycles, 1049); // Eq. 3.4 worked example
        assert_eq!(dma.total_bytes, 2048);
        assert_eq!(dma.transfers, 1);
    }

    #[test]
    fn dma_transfer_limit() {
        let mut dma = DmaEngine::default();
        let mram = Mram::new(8192);
        let mut wram = Wram::new(8192);
        let err = dma.read(&mram, &mut wram, 0, 0, 4096).unwrap_err();
        assert!(matches!(err, Error::DmaTooLarge { requested: 4096, limit: 2048 }));
    }

    #[test]
    fn dma_moves_data_both_ways() {
        let mut dma = DmaEngine::default();
        let mut mram = Mram::new(1024);
        let mut wram = Wram::new(1024);
        mram.write(100, b"hello dpu").unwrap();
        dma.read(&mram, &mut wram, 100, 0, 9).unwrap();
        assert_eq!(wram.slice(0, 9).unwrap(), b"hello dpu");
        wram.write(16, b"back atcha").unwrap();
        dma.write(&mut mram, &wram, 200, 16, 10).unwrap();
        assert_eq!(mram.to_vec(200, 10).unwrap(), b"back atcha");
    }

    #[test]
    fn dma_bounds_report_the_failing_memory() {
        let mut dma = DmaEngine::default();
        let mut mram = Mram::new(64);
        let mut wram = Wram::new(64);
        // MRAM range bad: the error names MRAM even though WRAM is fine.
        let err = dma.read(&mram, &mut wram, 60, 0, 16).unwrap_err();
        assert!(matches!(err, Error::OutOfBounds { kind: "MRAM", .. }));
        // WRAM range bad on a read.
        let err = dma.read(&mram, &mut wram, 0, 60, 16).unwrap_err();
        assert!(matches!(err, Error::OutOfBounds { kind: "WRAM", .. }));
        // WRAM range bad on a write.
        let err = dma.write(&mut mram, &wram, 0, 60, 16).unwrap_err();
        assert!(matches!(err, Error::OutOfBounds { kind: "WRAM", .. }));
    }

    #[test]
    fn wram_image_is_shared_until_written() {
        let zero = Wram::new(64);
        let a = zero.clone();
        assert_eq!(a.image_id(), zero.image_id(), "a clone shares");
        // A store, a write and a raw bit flip each privatize the image
        // they go through, and leave the sibling's bytes alone.
        let writes: [fn(&mut Wram); 3] = [
            |w| w.store(8, Width::W, 0xdead_beef).unwrap(),
            |w| w.write(8, &[1, 2, 3]).unwrap(),
            |w| w.flip_bit(8, 3).unwrap(),
        ];
        for write in writes {
            let mut b = a.clone();
            write(&mut b);
            assert_ne!(b.image_id(), a.image_id(), "{b:?}");
            assert_ne!(b, a);
            assert_eq!(a.slice(0, 64).unwrap(), &[0; 64][..], "the sibling is untouched");
            assert_eq!(a.image_id(), zero.image_id());
        }
        // Equality compares content: a private image of the same bytes
        // equals the shared one, and capacities must agree.
        let mut c = a.clone();
        c.write_u8(0, 7).unwrap();
        c.write_u8(0, 0).unwrap();
        assert_ne!(c.image_id(), a.image_id());
        assert_eq!(c, a);
        assert_ne!(Wram::new(32), a);
        // A zero image restores to zeros: the clone taken before the
        // writes is the snapshot.
        let snapshot = zero.clone();
        c.write(16, &[9; 16]).unwrap();
        c.clone_from(&snapshot);
        assert_eq!(c.image_id(), zero.image_id());
        assert_eq!(c.slice(0, 64).unwrap(), &[0; 64][..]);
    }

    #[test]
    fn a_run_takes_the_image_privately_and_puts_it_back() {
        let shared = Wram::new(64);
        let mut w = shared.clone();
        let mut dense = w.take();
        dense.write_u8(3, 5).unwrap();
        w.put(dense);
        assert_eq!((w.read_u8(3).unwrap(), shared.read_u8(3).unwrap()), (5, 0));
        // A weak reference pins the content under its address: an image
        // with one is moved away before it is written, even if unique.
        let weak = Arc::downgrade(&w.0);
        assert_eq!(w.image_id(), weak.as_ptr() as usize);
        w.write_u8(3, 6).unwrap();
        assert!(w.image_id() != weak.as_ptr() as usize && weak.upgrade().is_none());
    }

    #[test]
    fn clear_zeroes() {
        let mut w = Wram::new(32);
        w.write_u32(4, 77).unwrap();
        w.clear();
        assert_eq!(w.read_u32(4).unwrap(), 0);
    }

    #[test]
    fn ecc_scrub_corrects_single_bit_storage_errors() {
        let mut m = CowMemory::new("MRAM", MRAM_PAGE_BYTES * 2);
        m.set_ecc(true);
        let data: Vec<u8> = (0..256u32).map(|i| (i % 251) as u8).collect();
        m.write(100, &data).unwrap();
        let before = m.to_vec(0, m.len()).unwrap();
        // Storage errors: raw flips that bypass the sidecar.
        m.flip_bit_raw(120, 3).unwrap();
        m.flip_bit_raw(MRAM_PAGE_BYTES + 8, 6).unwrap();
        assert_ne!(m.to_vec(0, m.len()).unwrap(), before);
        let rep = m.scrub();
        assert_eq!(rep.corrected_data, 2);
        assert!(rep.uncorrectable.is_empty());
        assert_eq!(m.to_vec(0, m.len()).unwrap(), before, "scrub restored the exact image");
        // A second sweep finds nothing.
        assert!(m.scrub().clean());
    }

    #[test]
    fn ecc_scrub_surfaces_double_bit_errors_without_miscorrecting() {
        let mut m = CowMemory::new("MRAM", MRAM_PAGE_BYTES);
        m.set_ecc(true);
        m.write(0, &[0xAB; 64]).unwrap();
        m.flip_bit_raw(16, 1).unwrap();
        m.flip_bit_raw(17, 5).unwrap(); // same 8-byte word as addr 16
        let corrupted = m.to_vec(0, 64).unwrap();
        let rep = m.scrub();
        assert_eq!(rep.corrected(), 0);
        assert_eq!(rep.uncorrectable, vec![16], "word base address of the bad word");
        assert_eq!(m.to_vec(0, 64).unwrap(), corrupted, "no silent 'fix' was applied");
    }

    #[test]
    fn ecc_verify_range_repairs_reads_and_rejects_double_errors() {
        let mut m = CowMemory::new("MRAM", MRAM_PAGE_BYTES);
        m.set_ecc(true);
        m.write(0, &[0x5A; 128]).unwrap();
        m.flip_bit_raw(40, 2).unwrap();
        assert_eq!(m.verify_range(32, 64).unwrap(), 1);
        assert_eq!(m.to_vec(0, 128).unwrap(), vec![0x5A; 128]);
        m.flip_bit_raw(64, 0).unwrap();
        m.flip_bit_raw(65, 7).unwrap();
        let err = m.verify_range(0, 128).unwrap_err();
        assert!(matches!(err, Error::EccUncorrectable { addr: 64 }), "{err:?}");
    }

    #[test]
    fn ecc_sidecar_follows_legitimate_writes() {
        let mut m = CowMemory::new("MRAM", MRAM_PAGE_BYTES);
        m.set_ecc(true);
        m.write(0, &[1; 32]).unwrap();
        m.write(8, &[2; 8]).unwrap(); // overwrite a word: code must follow
        m.write_u8(20, 0x7F).unwrap();
        assert!(m.scrub().clean(), "writes keep data and sidecar consistent");
        // Enabling on a populated memory back-fills codes.
        let mut late = CowMemory::new("MRAM", MRAM_PAGE_BYTES);
        late.write(64, &[9; 40]).unwrap();
        late.set_ecc(true);
        assert!(late.scrub().clean());
    }

    #[test]
    fn ecc_snapshot_restore_round_trips_sidecar() {
        let mut m = CowMemory::new("MRAM", MRAM_PAGE_BYTES);
        m.set_ecc(true);
        m.write(0, &[3; 64]).unwrap();
        let snap = m.snapshot();
        m.flip_bit_raw(10, 4).unwrap();
        m.write(128, &[4; 16]).unwrap();
        m.restore(&snap).unwrap();
        assert!(m.ecc_enabled());
        assert!(m.scrub().clean(), "restored sidecar matches restored data");
        assert_eq!(m.to_vec(0, 64).unwrap(), vec![3; 64]);
    }

    #[test]
    fn raw_flip_on_shared_page_privatizes_before_corrupting() {
        // An injected storage flip on a page written set-wide must corrupt
        // only the faulted DPU's mapping.
        let mut a = CowMemory::new("MRAM", MRAM_PAGE_BYTES);
        let mut b = CowMemory::new("MRAM", MRAM_PAGE_BYTES);
        write_all([&mut a, &mut b], 0, &[0x33; MRAM_PAGE_BYTES]);
        assert_eq!(a.page_ids().next(), b.page_ids().next(), "shared before the fault");
        a.flip_bit_raw(7, 0).unwrap();
        assert_eq!(a.read_u8(7).unwrap(), 0x32);
        assert_eq!(b.read_u8(7).unwrap(), 0x33, "sibling mapping untouched");
        assert_ne!(a.page_ids().next(), b.page_ids().next(), "COW broke on the flip");
    }

    #[test]
    fn ecc_shared_sidecar_encoding_and_accounting() {
        let mut a = CowMemory::new("MRAM", MRAM_PAGE_BYTES);
        let mut b = CowMemory::new("MRAM", MRAM_PAGE_BYTES);
        write_all([&mut a, &mut b], 0, &[0xC4; MRAM_PAGE_BYTES]);
        // Enabled together, the shared page gets one sidecar.
        CowMemory::set_ecc_shared(true, [&mut a, &mut b]);
        assert!(Arc::ptr_eq(a.code(0).unwrap(), b.code(0).unwrap()));
        // A shared clean pair counts for both.
        let both = CowMemory::scrub_shared([&mut a, &mut b]);
        assert!(both.clean() && both.pages == 2, "{both:?}");
        // A partial set-wide write carries the refreshed sidecar along.
        write_all([&mut a, &mut b], 8, &[1; 8]);
        assert!(Arc::ptr_eq(a.code(0).unwrap(), b.code(0).unwrap()));
        assert!(a.scrub().clean() && b.scrub().clean());
        assert_eq!(a.ecc_resident_bytes(), MRAM_PAGE_BYTES / 8);
        // A repair privatizes: the sibling keeps the clean pair.
        b.flip_bit_raw(40, 1).unwrap();
        assert_eq!(CowMemory::scrub_shared([&mut a, &mut b]).corrected_data, 1);
        assert_eq!(a, b);
        // ECC off: no sidecar table, scrub is a no-op.
        a.set_ecc(false);
        assert_eq!((a.ecc_resident_bytes(), a.codes.len()), (0, 0));
        assert!(a.scrub().clean());
    }
}
