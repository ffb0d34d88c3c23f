//! Write-ahead journal for the SSD-backed hypervisor cache store.
//!
//! DoubleDecker's clean-cache semantics (paper §3–4) make recovery after
//! a hypervisor crash unusually forgiving: every cached entry is a clean
//! second-chance copy whose authoritative version lives on the virtual
//! disk, so a recovered cache may *lose* entries freely — the only fatal
//! outcome is serving an entry older than the guest's latest put/flush.
//! The journal records enough to warm-restart the SSD store while making
//! that outcome impossible:
//!
//! * **append-only records** for every state transition (puts, exclusive
//!   gets, evictions, flushes, pool/VM control-plane changes), each
//!   carrying a monotonically increasing **generation number** and a
//!   CRC32 checksum;
//! * a **durability watermark** ([`Journal::sync`]): flush records are
//!   synced before the flush hypercall is acknowledged, so an acked
//!   flush is always at or below the watermark;
//! * **truncation-tolerant replay** ([`Journal::replay`]): replay
//!   consumes the longest valid prefix and reports — without panicking —
//!   whether it stopped at a torn final record (crash mid-append) or a
//!   checksum mismatch (bit rot).
//!
//! Identifier types from higher layers (VM and pool ids, page versions)
//! are stored as raw integers; this crate sits below `ddc-cleancache`
//! and cannot name them.

use std::fmt;

/// Byte length of the fixed record header: `[len u16][kind u8][gen u64]`.
const HEADER_LEN: usize = 2 + 1 + 8;

/// Byte length of the trailing CRC32.
const TRAILER_LEN: usize = 4;

/// Smallest well-formed record (header + empty payload + crc).
const MIN_RECORD_LEN: usize = HEADER_LEN + TRAILER_LEN;

use crate::addr::{BlockAddr, FileId};

/// One journal record — a state transition of the hypervisor cache.
///
/// `vm` and `pool` fields are the raw integer ids of the cleancache
/// layer's `VmId`/`PoolId`; `version` is the raw guest page version;
/// `store` and `mode` are the `StoreKind`/`PartitionMode` discriminants
/// as encoded by the hypercache layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// A VM joined the cache with per-store weights.
    AddVm {
        /// Raw VM id.
        vm: u32,
        /// Memory-store weight.
        mem_weight: u64,
        /// SSD-store weight.
        ssd_weight: u64,
    },
    /// A VM left the cache (all its pools drained).
    RemoveVm {
        /// Raw VM id.
        vm: u32,
    },
    /// A VM's per-store weights changed.
    SetVmWeights {
        /// Raw VM id.
        vm: u32,
        /// New memory-store weight.
        mem_weight: u64,
        /// New SSD-store weight.
        ssd_weight: u64,
    },
    /// A pool was created with a `<store, weight>` policy.
    CreatePool {
        /// Raw VM id.
        vm: u32,
        /// Raw pool id.
        pool: u32,
        /// Store-kind discriminant of the pool policy.
        store: u8,
        /// Pool weight.
        weight: u32,
    },
    /// A pool was destroyed (all entries dropped).
    DestroyPool {
        /// Raw VM id.
        vm: u32,
        /// Raw pool id.
        pool: u32,
    },
    /// A pool's policy changed (rehoming side effects are journaled
    /// separately as evictions and puts).
    SetPolicy {
        /// Raw VM id.
        vm: u32,
        /// Raw pool id.
        pool: u32,
        /// New store-kind discriminant.
        store: u8,
        /// New pool weight.
        weight: u32,
    },
    /// A page version was stored (put, trickle-down, or rehome target).
    Put {
        /// Raw VM id.
        vm: u32,
        /// Raw pool id.
        pool: u32,
        /// Block address of the entry.
        addr: BlockAddr,
        /// Raw guest page version stored.
        version: u64,
        /// Placement discriminant (memory or SSD store).
        placement: u8,
    },
    /// An entry left the cache through an exclusive get.
    Take {
        /// Raw VM id.
        vm: u32,
        /// Raw pool id.
        pool: u32,
        /// Block address removed.
        addr: BlockAddr,
    },
    /// An entry was evicted (capacity pressure, rehome, or drain).
    Evict {
        /// Raw VM id.
        vm: u32,
        /// Raw pool id.
        pool: u32,
        /// Block address evicted.
        addr: BlockAddr,
    },
    /// A single-page flush (guest overwrote or invalidated the page).
    /// Synced before the hypercall is acknowledged.
    Flush {
        /// Raw VM id.
        vm: u32,
        /// Raw pool id.
        pool: u32,
        /// Block address flushed.
        addr: BlockAddr,
    },
    /// A whole-file flush. Synced before the hypercall is acknowledged.
    FlushFile {
        /// Raw VM id.
        vm: u32,
        /// Raw pool id.
        pool: u32,
        /// File whose pages were flushed.
        file: FileId,
    },
    /// An epoch marker: the generation of this record is a flush epoch
    /// the named VM may have observed (written by checkpoints).
    Epoch {
        /// Raw VM id.
        vm: u32,
    },
    /// The memory store was resized.
    SetMemCapacity {
        /// New capacity in pages.
        pages: u64,
    },
    /// The SSD store was resized.
    SetSsdCapacity {
        /// New capacity in pages.
        pages: u64,
    },
    /// The cache's partition mode, recorded by every checkpoint.
    SetMode {
        /// Partition-mode discriminant.
        mode: u8,
    },
    /// The SSD tier was quarantined and fully drained.
    SsdDrain,
    /// Per-VM SSD wear totals at a checkpoint. Compaction drops the
    /// historical `Put` records wear was accrued from; this record
    /// carries the totals forward so replay restores them exactly
    /// (wear never decreases across a recovery).
    WearTotals {
        /// Raw VM id the totals belong to.
        vm: u32,
        /// Lifetime SSD-tier page writes charged to the VM.
        ssd_pages_written: u64,
        /// Lifetime pages the VM admitted into either tier.
        pages_admitted: u64,
    },
}

impl JournalRecord {
    /// The record-kind discriminant used on the wire.
    fn kind(&self) -> u8 {
        match self {
            JournalRecord::AddVm { .. } => 1,
            JournalRecord::RemoveVm { .. } => 2,
            JournalRecord::SetVmWeights { .. } => 3,
            JournalRecord::CreatePool { .. } => 4,
            JournalRecord::DestroyPool { .. } => 5,
            JournalRecord::SetPolicy { .. } => 6,
            JournalRecord::Put { .. } => 7,
            JournalRecord::Take { .. } => 8,
            JournalRecord::Evict { .. } => 9,
            JournalRecord::Flush { .. } => 10,
            JournalRecord::FlushFile { .. } => 11,
            JournalRecord::Epoch { .. } => 12,
            JournalRecord::SetMemCapacity { .. } => 13,
            JournalRecord::SetSsdCapacity { .. } => 14,
            JournalRecord::SetMode { .. } => 15,
            JournalRecord::SsdDrain => 16,
            JournalRecord::WearTotals { .. } => 17,
        }
    }

    /// Encoded length of every [`JournalRecord::Put`]: all its fields
    /// are fixed-width. Checkpoint writers size their segments with it
    /// before a single record exists.
    pub const PUT_LEN: usize = MIN_RECORD_LEN + 4 + 4 + 8 + 8 + 8 + 1;

    /// Exact number of bytes this record occupies in a journal image
    /// (header, payload and checksum). Every kind is fixed-width, so
    /// the length depends on the variant alone.
    pub fn encoded_len(&self) -> usize {
        let payload = match self {
            JournalRecord::AddVm { .. }
            | JournalRecord::SetVmWeights { .. }
            | JournalRecord::WearTotals { .. } => 4 + 8 + 8,
            JournalRecord::RemoveVm { .. } | JournalRecord::Epoch { .. } => 4,
            JournalRecord::CreatePool { .. } | JournalRecord::SetPolicy { .. } => 4 + 4 + 1 + 4,
            JournalRecord::DestroyPool { .. } => 4 + 4,
            JournalRecord::Put { .. } => return Self::PUT_LEN,
            JournalRecord::Take { .. }
            | JournalRecord::Evict { .. }
            | JournalRecord::Flush { .. } => 4 + 4 + 8 + 8,
            JournalRecord::FlushFile { .. } => 4 + 4 + 8,
            JournalRecord::SetMemCapacity { .. } | JournalRecord::SetSsdCapacity { .. } => 8,
            JournalRecord::SetMode { .. } => 1,
            JournalRecord::SsdDrain => 0,
        };
        MIN_RECORD_LEN + payload
    }

    /// Appends the payload bytes (everything after the header).
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match *self {
            JournalRecord::AddVm {
                vm,
                mem_weight,
                ssd_weight,
            }
            | JournalRecord::SetVmWeights {
                vm,
                mem_weight,
                ssd_weight,
            } => {
                put_u32(out, vm);
                put_u64(out, mem_weight);
                put_u64(out, ssd_weight);
            }
            JournalRecord::RemoveVm { vm } | JournalRecord::Epoch { vm } => put_u32(out, vm),
            JournalRecord::CreatePool {
                vm,
                pool,
                store,
                weight,
            }
            | JournalRecord::SetPolicy {
                vm,
                pool,
                store,
                weight,
            } => {
                put_u32(out, vm);
                put_u32(out, pool);
                out.push(store);
                put_u32(out, weight);
            }
            JournalRecord::DestroyPool { vm, pool } => {
                put_u32(out, vm);
                put_u32(out, pool);
            }
            JournalRecord::Put {
                vm,
                pool,
                addr,
                version,
                placement,
            } => {
                put_u32(out, vm);
                put_u32(out, pool);
                put_u64(out, addr.file.0);
                put_u64(out, addr.block);
                put_u64(out, version);
                out.push(placement);
            }
            JournalRecord::Take { vm, pool, addr }
            | JournalRecord::Evict { vm, pool, addr }
            | JournalRecord::Flush { vm, pool, addr } => {
                put_u32(out, vm);
                put_u32(out, pool);
                put_u64(out, addr.file.0);
                put_u64(out, addr.block);
            }
            JournalRecord::FlushFile { vm, pool, file } => {
                put_u32(out, vm);
                put_u32(out, pool);
                put_u64(out, file.0);
            }
            JournalRecord::SetMemCapacity { pages } | JournalRecord::SetSsdCapacity { pages } => {
                put_u64(out, pages)
            }
            JournalRecord::SetMode { mode } => out.push(mode),
            JournalRecord::SsdDrain => {}
            JournalRecord::WearTotals {
                vm,
                ssd_pages_written,
                pages_admitted,
            } => {
                put_u32(out, vm);
                put_u64(out, ssd_pages_written);
                put_u64(out, pages_admitted);
            }
        }
    }

    /// Decodes a payload for `kind`, or `None` if malformed.
    fn decode_payload(kind: u8, payload: &[u8]) -> Option<JournalRecord> {
        let mut c = Cursor::new(payload);
        let rec = match kind {
            1 => JournalRecord::AddVm {
                vm: c.u32()?,
                mem_weight: c.u64()?,
                ssd_weight: c.u64()?,
            },
            2 => JournalRecord::RemoveVm { vm: c.u32()? },
            3 => JournalRecord::SetVmWeights {
                vm: c.u32()?,
                mem_weight: c.u64()?,
                ssd_weight: c.u64()?,
            },
            4 => JournalRecord::CreatePool {
                vm: c.u32()?,
                pool: c.u32()?,
                store: c.u8()?,
                weight: c.u32()?,
            },
            5 => JournalRecord::DestroyPool {
                vm: c.u32()?,
                pool: c.u32()?,
            },
            6 => JournalRecord::SetPolicy {
                vm: c.u32()?,
                pool: c.u32()?,
                store: c.u8()?,
                weight: c.u32()?,
            },
            7 => JournalRecord::Put {
                vm: c.u32()?,
                pool: c.u32()?,
                addr: BlockAddr::new(FileId(c.u64()?), c.u64()?),
                version: c.u64()?,
                placement: c.u8()?,
            },
            8 => JournalRecord::Take {
                vm: c.u32()?,
                pool: c.u32()?,
                addr: BlockAddr::new(FileId(c.u64()?), c.u64()?),
            },
            9 => JournalRecord::Evict {
                vm: c.u32()?,
                pool: c.u32()?,
                addr: BlockAddr::new(FileId(c.u64()?), c.u64()?),
            },
            10 => JournalRecord::Flush {
                vm: c.u32()?,
                pool: c.u32()?,
                addr: BlockAddr::new(FileId(c.u64()?), c.u64()?),
            },
            11 => JournalRecord::FlushFile {
                vm: c.u32()?,
                pool: c.u32()?,
                file: FileId(c.u64()?),
            },
            12 => JournalRecord::Epoch { vm: c.u32()? },
            13 => JournalRecord::SetMemCapacity { pages: c.u64()? },
            14 => JournalRecord::SetSsdCapacity { pages: c.u64()? },
            15 => JournalRecord::SetMode { mode: c.u8()? },
            16 => JournalRecord::SsdDrain,
            17 => JournalRecord::WearTotals {
                vm: c.u32()?,
                ssd_pages_written: c.u64()?,
                pages_admitted: c.u64()?,
            },
            _ => return None,
        };
        if c.at_end() {
            Some(rec)
        } else {
            None
        }
    }
}

/// How replay of a journal image terminated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Number of valid records consumed.
    pub records: u64,
    /// Bytes of the image consumed by valid records.
    pub bytes_consumed: usize,
    /// Replay stopped at a torn final record (length overruns the image).
    pub torn_tail: bool,
    /// Replay stopped at a corrupt record (checksum or framing failure).
    pub corrupt: bool,
}

impl fmt::Display for ReplayStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} records / {} bytes{}{}",
            self.records,
            self.bytes_consumed,
            if self.torn_tail { ", torn tail" } else { "" },
            if self.corrupt { ", corrupt" } else { "" },
        )
    }
}

/// An in-memory append-only journal with an explicit durability
/// watermark standing in for `fsync`.
///
/// # Example
///
/// ```
/// use ddc_storage::{BlockAddr, FileId, Journal, JournalRecord};
///
/// let mut j = Journal::new();
/// let gen = j.append(&JournalRecord::Flush {
///     vm: 1,
///     pool: 2,
///     addr: BlockAddr::new(FileId(7), 3),
/// });
/// j.sync();
/// assert_eq!(gen, 1);
/// let (records, stats) = Journal::replay(j.bytes());
/// assert_eq!(records.len(), 1);
/// assert!(!stats.torn_tail && !stats.corrupt);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Journal {
    buf: Vec<u8>,
    durable: usize,
    next_gen: u64,
    records: u64,
}

impl Journal {
    /// An empty journal whose first record gets generation 1.
    pub fn new() -> Journal {
        Journal::with_start_gen(1)
    }

    /// An empty journal whose first record gets generation `start_gen` —
    /// used by recovery checkpoints so generations stay monotone across
    /// restarts.
    pub fn with_start_gen(start_gen: u64) -> Journal {
        Journal {
            buf: Vec::new(),
            durable: 0,
            next_gen: start_gen.max(1),
            records: 0,
        }
    }

    /// Appends a record and returns its generation number. The record is
    /// *not* durable until the next [`Journal::sync`].
    pub fn append(&mut self, rec: &JournalRecord) -> u64 {
        let gen = self.next_gen;
        self.append_with_gen(rec, gen);
        gen
    }

    /// Appends a record carrying an explicitly assigned generation.
    /// The sharded serving plane draws generations from one cache-global
    /// cell and fans records out across per-shard segments; the segments
    /// then interleave back into a single dense generation sequence at
    /// recovery. The journal's own counter advances past `gen`, so mixed
    /// use with [`Journal::append`] stays monotone. Wire-identical
    /// framing to [`Journal::append`].
    pub fn append_with_gen(&mut self, rec: &JournalRecord, gen: u64) {
        self.next_gen = self.next_gen.max(gen + 1);
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0, 0]); // length backpatched below
        self.buf.push(rec.kind());
        put_u64(&mut self.buf, gen);
        rec.encode_payload(&mut self.buf);
        let len = (self.buf.len() - start + TRAILER_LEN) as u16;
        self.buf[start..start + 2].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&self.buf[start..]);
        put_u32(&mut self.buf, crc);
        debug_assert_eq!(self.buf.len() - start, rec.encoded_len());
        self.records += 1;
    }

    /// Reserves room for `bytes` more bytes of records, so a writer
    /// that knows its total up front (a checkpoint: live entries ×
    /// [`JournalRecord::PUT_LEN`]) never regrows the image mid-write.
    pub fn reserve(&mut self, bytes: usize) {
        self.buf.reserve(bytes);
    }

    /// Appends a batch of records carrying a contiguous, explicitly
    /// claimed generation run: record `i` gets `start_gen + i`. The
    /// sharded serving plane claims the run from its cache-global
    /// generation cell in a single `fetch_add(n)` and lands the whole
    /// group in one segment append instead of `n` per-record calls.
    /// Wire-identical to looping [`Journal::append_with_gen`] over
    /// `start_gen..start_gen + n`; one reservation of the exact encoded
    /// length covers the batch, so the segment is never regrown (and
    /// copied) mid-run under the shard lock. Returns the generation of
    /// the last record (`start_gen` when `recs` is empty, i.e. nothing
    /// was appended).
    pub fn append_run(&mut self, recs: &[JournalRecord], start_gen: u64) -> u64 {
        self.reserve_for(recs);
        let mut gen = start_gen;
        for rec in recs {
            self.append_with_gen(rec, gen);
            gen += 1;
        }
        gen.saturating_sub(1).max(start_gen)
    }

    /// One reservation for the exact bytes `recs` will encode to.
    fn reserve_for(&mut self, recs: &[JournalRecord]) {
        self.reserve(recs.iter().map(JournalRecord::encoded_len).sum());
    }

    /// Makes everything appended so far durable (the `fsync` stand-in).
    /// Flush records must be synced before the hypercall returns; puts
    /// and evictions may remain above the watermark and be lost.
    pub fn sync(&mut self) {
        self.durable = self.buf.len();
    }

    /// The full journal image, including unsynced bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes guaranteed durable (at or below the last [`Journal::sync`]).
    pub fn durable_len(&self) -> usize {
        self.durable
    }

    /// Total bytes appended.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The generation the next appended record will receive.
    pub fn next_gen(&self) -> u64 {
        self.next_gen
    }

    /// Number of records appended to this journal. Live compaction in
    /// the hypercache layer compares this against the live entry count
    /// to decide when the journal is worth checkpointing.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Byte offsets of record boundaries in `bytes` (the end offset of
    /// each well-formed record, in order). Crash harnesses use this to
    /// cut a journal image at clean record boundaries.
    pub fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
        let mut out = Vec::new();
        let mut off = 0;
        while bytes.len() - off >= MIN_RECORD_LEN {
            let len = u16::from_le_bytes([bytes[off], bytes[off + 1]]) as usize;
            if len < MIN_RECORD_LEN || off + len > bytes.len() {
                break;
            }
            off += len;
            out.push(off);
        }
        out
    }

    /// Decodes the longest valid prefix of a journal image.
    ///
    /// Returns the `(generation, record)` pairs in append order plus
    /// [`ReplayStats`] describing how decoding terminated. A short or
    /// overrunning final record is reported as a torn tail; a checksum
    /// or framing failure as corruption. Neither panics — crash recovery
    /// must accept any byte image.
    pub fn replay(bytes: &[u8]) -> (Vec<(u64, JournalRecord)>, ReplayStats) {
        let mut records = Vec::new();
        let mut stats = ReplayStats::default();
        let mut off = 0;
        loop {
            let remaining = bytes.len() - off;
            if remaining == 0 {
                break;
            }
            if remaining < MIN_RECORD_LEN {
                stats.torn_tail = true;
                break;
            }
            let len = u16::from_le_bytes([bytes[off], bytes[off + 1]]) as usize;
            if len < MIN_RECORD_LEN {
                stats.corrupt = true;
                break;
            }
            if off + len > bytes.len() {
                stats.torn_tail = true;
                break;
            }
            let rec_bytes = &bytes[off..off + len];
            let body = &rec_bytes[..len - TRAILER_LEN];
            let stored_crc = u32::from_le_bytes(
                rec_bytes[len - TRAILER_LEN..]
                    .try_into()
                    .expect("trailer is 4 bytes"),
            );
            if crc32(body) != stored_crc {
                stats.corrupt = true;
                break;
            }
            let kind = rec_bytes[2];
            let gen = u64::from_le_bytes(rec_bytes[3..11].try_into().expect("header gen"));
            match JournalRecord::decode_payload(kind, &body[HEADER_LEN..]) {
                Some(rec) => records.push((gen, rec)),
                None => {
                    stats.corrupt = true;
                    break;
                }
            }
            off += len;
            stats.records += 1;
        }
        stats.bytes_consumed = off;
        (records, stats)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian payload reader.
struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, off: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.off)?;
        self.off += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.bytes.get(self.off..self.off + 4)?;
        self.off += 4;
        Some(u32::from_le_bytes(s.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.bytes.get(self.off..self.off + 8)?;
        self.off += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }

    fn at_end(&self) -> bool {
        self.off == self.bytes.len()
    }
}

/// Reflected IEEE 802.3 generator polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time (8 KiB of `.rodata`).
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC state after byte `b` followed by `k` zero bytes, which is
/// what lets eight input bytes be folded in with eight independent
/// lookups instead of 64 dependent shift/xor steps.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320, init and final
/// xor `0xFFFF_FFFF`) — the checksum trailing every journal record.
///
/// Table-driven, slice-by-8: eight bytes per step through the
/// compile-time `CRC_TABLES`, the tail byte by byte. The value is
/// bit-for-bit the one the bitwise definition yields (the unit tests
/// keep that loop as the oracle), so images written by either decode
/// under the other. Every record is checksummed under its shard's lock
/// on append and again on replay: with this kernel a `Put` appends in
/// ~55 ns and replays in ~25, against ~260 and ~255 bit by bit (~350
/// dependent shift/xor steps for its 44-byte body).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::AddVm {
                vm: 1,
                mem_weight: 60,
                ssd_weight: 40,
            },
            JournalRecord::CreatePool {
                vm: 1,
                pool: 1,
                store: 0,
                weight: 100,
            },
            JournalRecord::Put {
                vm: 1,
                pool: 1,
                addr: BlockAddr::new(FileId(7), 3),
                version: 9,
                placement: 1,
            },
            JournalRecord::Take {
                vm: 1,
                pool: 1,
                addr: BlockAddr::new(FileId(7), 3),
            },
            JournalRecord::Evict {
                vm: 1,
                pool: 1,
                addr: BlockAddr::new(FileId(7), 4),
            },
            JournalRecord::Flush {
                vm: 1,
                pool: 1,
                addr: BlockAddr::new(FileId(7), 5),
            },
            JournalRecord::FlushFile {
                vm: 1,
                pool: 1,
                file: FileId(7),
            },
            JournalRecord::Epoch { vm: 1 },
            JournalRecord::SetVmWeights {
                vm: 1,
                mem_weight: 50,
                ssd_weight: 50,
            },
            JournalRecord::SetPolicy {
                vm: 1,
                pool: 1,
                store: 2,
                weight: 30,
            },
            JournalRecord::SetMemCapacity { pages: 4096 },
            JournalRecord::SetSsdCapacity { pages: 65536 },
            JournalRecord::SetMode { mode: 1 },
            JournalRecord::SsdDrain,
            JournalRecord::WearTotals {
                vm: 1,
                ssd_pages_written: 12345,
                pages_admitted: 67890,
            },
            JournalRecord::DestroyPool { vm: 1, pool: 1 },
            JournalRecord::RemoveVm { vm: 1 },
        ]
    }

    /// The bitwise definition of the checksum: the oracle the table
    /// kernel is held against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc_equals_the_bitwise_definition() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Every prefix of a real image: each count of whole 8-byte
        // steps with each tail. (`tests/prop_journal_codec.rs` sweeps
        // start offsets and seeded bytes against its own copy.)
        let mut j = Journal::new();
        j.append_run(&sample_records(), 1);
        for len in 0..=j.len() {
            let s = &j.bytes()[..len];
            assert_eq!(crc32(s), crc32_bitwise(s), "length {len}");
        }
    }

    #[test]
    fn encoded_len_is_the_bytes_written_for_every_kind() {
        let recs = sample_records();
        let mut kinds: Vec<u8> = recs.iter().map(JournalRecord::kind).collect();
        kinds.sort_unstable();
        assert_eq!(kinds, (1..=17).collect::<Vec<u8>>(), "one sample per kind");
        for r in &recs {
            let mut j = Journal::new();
            j.append(r);
            assert_eq!(j.len(), r.encoded_len(), "{r:?}");
        }
        assert_eq!(recs[2].encoded_len(), JournalRecord::PUT_LEN);
        assert_eq!(JournalRecord::PUT_LEN, 48);
        assert_eq!(recs[3].encoded_len(), 39, "Take");
        assert_eq!(JournalRecord::SsdDrain.encoded_len(), MIN_RECORD_LEN);
    }

    #[test]
    fn a_batch_fits_the_reservation_it_makes() {
        let recs = sample_records();
        let mut j = Journal::new();
        j.append(&recs[0]);
        j.reserve_for(&recs);
        let cap = j.buf.capacity();
        j.append_run(&recs, 2);
        assert_eq!(j.buf.capacity(), cap, "the run regrew the segment");
    }

    #[test]
    fn append_run_is_wire_identical_to_explicit_gen_appends() {
        let recs = sample_records();
        for start_gen in [1u64, 17, 4_000_000_000] {
            let mut one_by_one = Journal::with_start_gen(start_gen);
            for (i, r) in recs.iter().enumerate() {
                one_by_one.append_with_gen(r, start_gen + i as u64);
            }
            let mut batched = Journal::with_start_gen(start_gen);
            let last = batched.append_run(&recs, start_gen);
            assert_eq!(last, start_gen + recs.len() as u64 - 1);
            assert_eq!(batched.bytes(), one_by_one.bytes());
            assert_eq!(batched.records(), one_by_one.records());
            assert_eq!(batched.next_gen(), one_by_one.next_gen());
        }
        let mut empty = Journal::new();
        assert_eq!(empty.append_run(&[], 9), 9, "empty run appends nothing");
        assert!(empty.is_empty());
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        let mut j = Journal::new();
        let recs = sample_records();
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(j.append(r), i as u64 + 1, "generations are sequential");
        }
        let (replayed, stats) = Journal::replay(j.bytes());
        assert_eq!(stats.records, recs.len() as u64);
        assert!(!stats.torn_tail && !stats.corrupt);
        assert_eq!(stats.bytes_consumed, j.len());
        for (i, (gen, rec)) in replayed.iter().enumerate() {
            assert_eq!(*gen, i as u64 + 1);
            assert_eq!(*rec, recs[i]);
        }
    }

    #[test]
    fn sync_advances_watermark() {
        let mut j = Journal::new();
        assert_eq!(j.durable_len(), 0);
        j.append(&JournalRecord::SsdDrain);
        assert_eq!(j.durable_len(), 0, "append alone is not durable");
        j.sync();
        assert_eq!(j.durable_len(), j.len());
        j.append(&JournalRecord::SsdDrain);
        assert!(j.durable_len() < j.len());
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let mut j = Journal::new();
        for r in sample_records() {
            j.append(&r);
        }
        let boundaries = Journal::record_boundaries(j.bytes());
        assert_eq!(*boundaries.last().unwrap(), j.len());
        // Cut mid-record: everything before the cut replays, the tail is
        // reported torn.
        let cut = boundaries[2] + 3;
        let (replayed, stats) = Journal::replay(&j.bytes()[..cut]);
        assert_eq!(replayed.len(), 3);
        assert!(stats.torn_tail);
        assert!(!stats.corrupt);
        assert_eq!(stats.bytes_consumed, boundaries[2]);
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut j = Journal::new();
        for r in sample_records() {
            j.append(&r);
        }
        let boundaries = Journal::record_boundaries(j.bytes());
        // Flip one payload bit in the 4th record.
        let mut img = j.bytes().to_vec();
        img[boundaries[2] + HEADER_LEN] ^= 0x40;
        let (replayed, stats) = Journal::replay(&img);
        assert_eq!(replayed.len(), 3, "replay stops at the corrupt record");
        assert!(stats.corrupt);
        assert!(!stats.torn_tail);
    }

    #[test]
    fn length_corruption_is_detected() {
        let mut j = Journal::new();
        j.append(&JournalRecord::SsdDrain);
        j.append(&JournalRecord::SsdDrain);
        let mut img = j.bytes().to_vec();
        img[0] = 3; // shorter than any valid record
        let (replayed, stats) = Journal::replay(&img);
        assert!(replayed.is_empty());
        assert!(stats.corrupt);
        // Overrunning length: reported as a torn tail (indistinguishable
        // from a crash mid-append).
        let mut img = j.bytes().to_vec();
        img[0] = 200;
        let (replayed, stats) = Journal::replay(&img);
        assert!(replayed.is_empty());
        assert!(stats.torn_tail);
    }

    #[test]
    fn unknown_kind_is_corrupt() {
        let mut j = Journal::new();
        j.append(&JournalRecord::SsdDrain);
        let mut img = j.bytes().to_vec();
        img[2] = 99;
        // Fix the CRC so only the kind is bad.
        let body_len = img.len() - TRAILER_LEN;
        let crc = crc32(&img[..body_len]);
        img.truncate(body_len);
        put_u32(&mut img, crc);
        let (replayed, stats) = Journal::replay(&img);
        assert!(replayed.is_empty());
        assert!(stats.corrupt);
    }

    #[test]
    fn start_gen_is_honoured() {
        let mut j = Journal::with_start_gen(100);
        assert_eq!(j.append(&JournalRecord::SsdDrain), 100);
        assert_eq!(j.next_gen(), 101);
        // with_start_gen(0) still produces valid generations (>= 1).
        let mut j0 = Journal::with_start_gen(0);
        assert_eq!(j0.append(&JournalRecord::SsdDrain), 1);
    }

    #[test]
    fn explicit_generations_are_wire_identical_and_replayable() {
        // A segment receiving a sparse slice of the global generation
        // sequence must frame records exactly like the serial path and
        // replay them with the generations it was handed.
        let recs = sample_records();
        let gens = [
            3u64, 4, 9, 10, 11, 20, 21, 22, 23, 30, 31, 40, 41, 50, 51, 52, 53,
        ];
        let mut seg = Journal::new();
        for (r, &g) in recs.iter().zip(&gens) {
            seg.append_with_gen(r, g);
        }
        assert_eq!(seg.records(), recs.len() as u64);
        assert_eq!(seg.next_gen(), 54, "counter advanced past the max gen");
        let (replayed, stats) = Journal::replay(seg.bytes());
        assert!(!stats.torn_tail && !stats.corrupt);
        for (i, (gen, rec)) in replayed.iter().enumerate() {
            assert_eq!(*gen, gens[i]);
            assert_eq!(*rec, recs[i]);
        }
        // Same record, same gen => same bytes as the implicit path.
        let mut a = Journal::with_start_gen(7);
        a.append(&JournalRecord::SsdDrain);
        let mut b = Journal::new();
        b.append_with_gen(&JournalRecord::SsdDrain, 7);
        assert_eq!(a.bytes(), b.bytes());
    }

    #[test]
    fn empty_image_replays_clean() {
        let (replayed, stats) = Journal::replay(&[]);
        assert!(replayed.is_empty());
        assert_eq!(stats, ReplayStats::default());
        assert!(Journal::new().is_empty());
    }
}
