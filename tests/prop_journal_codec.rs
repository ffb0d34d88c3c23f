//! Property tests for the journal's wire codec (DESIGN.md §11.1): the
//! table-driven CRC32 kernel against the bitwise definition, the record
//! codec against itself, the decoder against hostile bytes, and the
//! whole format against a committed image.
//!
//! Recovery must accept *any* byte image a crash or bit rot leaves
//! behind, so the decoder's contract is: never panic, and never hand
//! back a record that was not appended at that position — a damaged
//! image replays as an exact prefix of what was written, ending in
//! `torn_tail` or `corrupt`. (Seeded SimRng schedules — the in-tree
//! replacement for proptest.)

use ddc_sim::SimRng;
use ddc_storage::{crc32, BlockAddr, FileId, Journal, JournalRecord, ReplayStats};

/// The checksum's definition, bit by bit: IEEE 802.3, reflected
/// polynomial 0xEDB88320, init and final xor 0xFFFFFFFF.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A value whose magnitude is itself random, so small ids, 2^32
/// boundaries and full-width values all occur.
fn wide(r: &mut SimRng) -> u64 {
    r.next_u64() >> r.range_u64(0, 64)
}

fn random_addr(r: &mut SimRng) -> BlockAddr {
    BlockAddr::new(FileId(wide(r)), wide(r))
}

/// A record of wire kind `kind` (1..=17) with arbitrary field values.
fn random_record(r: &mut SimRng, kind: u8) -> JournalRecord {
    let vm = wide(r) as u32;
    let pool = wide(r) as u32;
    match kind {
        1 => JournalRecord::AddVm {
            vm,
            mem_weight: wide(r),
            ssd_weight: wide(r),
        },
        2 => JournalRecord::RemoveVm { vm },
        3 => JournalRecord::SetVmWeights {
            vm,
            mem_weight: wide(r),
            ssd_weight: wide(r),
        },
        4 => JournalRecord::CreatePool {
            vm,
            pool,
            store: wide(r) as u8,
            weight: wide(r) as u32,
        },
        5 => JournalRecord::DestroyPool { vm, pool },
        6 => JournalRecord::SetPolicy {
            vm,
            pool,
            store: wide(r) as u8,
            weight: wide(r) as u32,
        },
        7 => JournalRecord::Put {
            vm,
            pool,
            addr: random_addr(r),
            version: wide(r),
            placement: wide(r) as u8,
        },
        8 => JournalRecord::Take {
            vm,
            pool,
            addr: random_addr(r),
        },
        9 => JournalRecord::Evict {
            vm,
            pool,
            addr: random_addr(r),
        },
        10 => JournalRecord::Flush {
            vm,
            pool,
            addr: random_addr(r),
        },
        11 => JournalRecord::FlushFile {
            vm,
            pool,
            file: FileId(wide(r)),
        },
        12 => JournalRecord::Epoch { vm },
        13 => JournalRecord::SetMemCapacity { pages: wide(r) },
        14 => JournalRecord::SetSsdCapacity { pages: wide(r) },
        15 => JournalRecord::SetMode {
            mode: wide(r) as u8,
        },
        16 => JournalRecord::SsdDrain,
        17 => JournalRecord::WearTotals {
            vm,
            ssd_pages_written: wide(r),
            pages_admitted: wide(r),
        },
        _ => unreachable!("journal kinds are 1..=17"),
    }
}

/// `n` seeded records (every kind at least once when `n >= 17`) with
/// arbitrary, unordered generations, and the image they encode to.
fn random_image(r: &mut SimRng, n: usize) -> (Vec<(u64, JournalRecord)>, Vec<u8>) {
    let mut j = Journal::new();
    let mut written = Vec::with_capacity(n);
    for i in 0..n {
        let kind = if i < 17 {
            i as u8 + 1
        } else {
            r.range_u64(1, 18) as u8
        };
        let rec = random_record(r, kind);
        // `u64::MAX` itself is out: the journal keeps `gen + 1`.
        let gen = wide(r).min(u64::MAX - 1);
        j.append_with_gen(&rec, gen);
        written.push((gen, rec));
    }
    (written, j.bytes().to_vec())
}

/// What every replay must satisfy, whatever the bytes were: consistent
/// stats, and a consumed prefix that is exactly the canonical encoding
/// of the records returned (so nothing was invented or reinterpreted).
fn check_replay_is_sound(bytes: &[u8]) -> (Vec<(u64, JournalRecord)>, ReplayStats) {
    let (records, stats) = Journal::replay(bytes);
    assert_eq!(stats.records, records.len() as u64);
    assert!(stats.bytes_consumed <= bytes.len());
    assert!(!(stats.torn_tail && stats.corrupt), "one stop reason");
    assert_eq!(
        stats.bytes_consumed == bytes.len(),
        !stats.torn_tail && !stats.corrupt,
        "a replay that stopped early says why"
    );
    let mut again = Journal::new();
    for (gen, rec) in &records {
        again.append_with_gen(rec, *gen);
    }
    assert_eq!(again.bytes(), &bytes[..stats.bytes_consumed]);
    let boundaries = Journal::record_boundaries(bytes);
    assert!(boundaries.len() >= records.len());
    assert_eq!(
        boundaries.get(records.len().wrapping_sub(1)).copied(),
        records.last().map(|_| stats.bytes_consumed)
    );
    (records, stats)
}

#[test]
fn table_crc_equals_the_bitwise_definition_at_every_offset_and_length() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    let mut r = SimRng::new(0xC3C32);
    let buf: Vec<u8> = (0..8 + 96).map(|_| r.next_u64() as u8).collect();
    for off in 0..8 {
        for len in 0..=96 {
            let s = &buf[off..off + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "offset {off}, length {len}");
        }
    }
    // Long inputs: many 8-byte steps, then each possible tail.
    let long: Vec<u8> = (0..4096 + 7).map(|_| r.next_u64() as u8).collect();
    for tail in 0..8 {
        let s = &long[..4096 + tail];
        assert_eq!(crc32(s), crc32_bitwise(s), "length {}", s.len());
    }
}

#[test]
fn replay_of_encode_is_identity_for_every_kind_and_any_generation() {
    for seed in 0..64u64 {
        let mut r = SimRng::new(0xC0DEC ^ seed);
        let n = r.range_usize(17, 80);
        let (written, image) = random_image(&mut r, n);
        let (replayed, stats) = check_replay_is_sound(&image);
        assert_eq!(replayed, written, "seed {seed}");
        assert_eq!(
            stats,
            ReplayStats {
                records: n as u64,
                bytes_consumed: image.len(),
                torn_tail: false,
                corrupt: false,
            }
        );
        let lens: usize = written.iter().map(|(_, rec)| rec.encoded_len()).sum();
        assert_eq!(lens, image.len(), "encoded_len is the bytes written");
    }
}

#[test]
fn arbitrary_bytes_never_panic_and_never_invent_a_record() {
    let mut r = SimRng::new(0xBAD_B17E5);
    for _ in 0..4_000 {
        let len = r.range_usize(0, 160);
        let mut bytes: Vec<u8> = (0..len).map(|_| r.next_u64() as u8).collect();
        // Half the time make the framing plausible, so the decoder gets
        // past the length checks and into the checksum and the payload.
        if len >= 2 && r.chance(0.5) {
            let claimed = r.range_usize(15, 60) as u16;
            bytes[..2].copy_from_slice(&claimed.to_le_bytes());
        }
        check_replay_is_sound(&bytes);
    }
    // A well-formed frame with a valid checksum around a payload of the
    // wrong width (or an unknown kind) is corruption, not a record.
    for kind in 0..=40u8 {
        for payload_len in 0..40usize {
            let mut frame = vec![0u8; 2];
            frame.push(kind);
            frame.extend_from_slice(&7u64.to_le_bytes());
            frame.extend((0..payload_len).map(|_| r.next_u64() as u8));
            let total = (frame.len() + 4) as u16;
            frame[..2].copy_from_slice(&total.to_le_bytes());
            let crc = crc32(&frame);
            frame.extend_from_slice(&crc.to_le_bytes());
            let (records, stats) = check_replay_is_sound(&frame);
            match records.first() {
                Some((gen, rec)) => {
                    assert_eq!(*gen, 7);
                    assert_eq!(rec.encoded_len(), frame.len(), "kind {kind}");
                }
                None => assert!(stats.corrupt, "kind {kind}, payload {payload_len}"),
            }
        }
    }
}

/// Every single-bit flip and every cut of `image`, whose records are
/// `written`: the replay is the exact prefix before the damage.
fn check_every_flip_and_cut(written: &[(u64, JournalRecord)], image: &[u8]) {
    let boundaries = Journal::record_boundaries(image);
    assert_eq!(boundaries.len(), written.len());
    for cut in 0..=image.len() {
        let whole = boundaries.iter().filter(|&&b| b <= cut).count();
        let (records, stats) = check_replay_is_sound(&image[..cut]);
        assert_eq!(records, written[..whole], "cut at {cut}");
        assert!(!stats.corrupt, "a cut is a torn tail, not corruption");
        let on_boundary = cut == 0 || boundaries.contains(&cut);
        assert_eq!(stats.torn_tail, !on_boundary, "cut at {cut}");
    }
    let mut damaged = image.to_vec();
    for byte in 0..image.len() {
        let hit = boundaries.iter().filter(|&&b| b <= byte).count();
        for bit in 0..8 {
            damaged[byte] ^= 1 << bit;
            let (records, stats) = check_replay_is_sound(&damaged);
            assert_eq!(records, written[..hit], "flip of byte {byte} bit {bit}");
            assert!(
                stats.corrupt || stats.torn_tail,
                "flip of byte {byte} bit {bit} went unnoticed"
            );
            damaged[byte] ^= 1 << bit;
        }
    }
}

#[test]
fn any_flipped_bit_or_cut_leaves_an_exact_prefix() {
    for seed in 0..6u64 {
        let mut r = SimRng::new(0xF11B ^ (seed << 20));
        let (written, image) = random_image(&mut r, 24);
        check_every_flip_and_cut(&written, &image);
    }
    check_every_flip_and_cut(&golden_records(), GOLDEN_IMAGE);
}

/// One record of every kind, in wire-kind order, generations 1..=15
/// and then two past 2^32.
fn golden_records() -> Vec<(u64, JournalRecord)> {
    let a = BlockAddr::new(FileId(0x0102_0304_0506_0708), 0x1112_1314_1516_1718);
    vec![
        (
            1,
            JournalRecord::AddVm {
                vm: 1,
                mem_weight: 60,
                ssd_weight: 40,
            },
        ),
        (2, JournalRecord::RemoveVm { vm: 0xDEAD_BEEF }),
        (
            3,
            JournalRecord::SetVmWeights {
                vm: 2,
                mem_weight: u64::MAX,
                ssd_weight: 0,
            },
        ),
        (
            4,
            JournalRecord::CreatePool {
                vm: 1,
                pool: 3,
                store: 2,
                weight: 100,
            },
        ),
        (5, JournalRecord::DestroyPool { vm: 1, pool: 3 }),
        (
            6,
            JournalRecord::SetPolicy {
                vm: 1,
                pool: 4,
                store: 1,
                weight: 0x0A0B_0C0D,
            },
        ),
        (
            7,
            JournalRecord::Put {
                vm: 1,
                pool: 4,
                addr: a,
                version: 0x2122_2324_2526_2728,
                placement: 1,
            },
        ),
        (
            8,
            JournalRecord::Take {
                vm: 1,
                pool: 4,
                addr: a,
            },
        ),
        (
            9,
            JournalRecord::Evict {
                vm: 1,
                pool: 4,
                addr: BlockAddr::new(FileId(7), 4),
            },
        ),
        (
            10,
            JournalRecord::Flush {
                vm: 1,
                pool: 4,
                addr: BlockAddr::new(FileId(7), 5),
            },
        ),
        (
            11,
            JournalRecord::FlushFile {
                vm: 1,
                pool: 4,
                file: FileId(7),
            },
        ),
        (12, JournalRecord::Epoch { vm: 1 }),
        (13, JournalRecord::SetMemCapacity { pages: 4096 }),
        (14, JournalRecord::SetSsdCapacity { pages: 65536 }),
        (15, JournalRecord::SetMode { mode: 1 }),
        // A generation past 2^32, as a long-running host reaches.
        (0x0000_0001_0000_0010, JournalRecord::SsdDrain),
        (
            0x0000_0001_0000_0011,
            JournalRecord::WearTotals {
                vm: 1,
                ssd_pages_written: 12345,
                pages_admitted: 67890,
            },
        ),
    ]
}

/// The committed image of [`golden_records`]. Not captured from this
/// encoder: written from the format's description
/// (`[len u16][kind u8][gen u64][payload][crc32]`, all little-endian,
/// `len` counting the whole record) by a second encoder — Python's
/// `struct.pack` and `zlib.crc32` — so it also pins the checksum to
/// the one everybody else calls CRC-32.
#[rustfmt::skip]
const GOLDEN_IMAGE: &[u8] = &[
    // AddVm, 35 bytes
    0x23, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x3C,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x15,
    0x79, 0xD1, 0x06,
    // RemoveVm, 19 bytes
    0x13, 0x00, 0x02, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xEF, 0xBE, 0xAD, 0xDE, 0x06,
    0x62, 0xB5, 0x35,
    // SetVmWeights, 35 bytes
    0x23, 0x00, 0x03, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0xFF,
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x5F,
    0x1E, 0xDB, 0x87,
    // CreatePool, 28 bytes
    0x1C, 0x00, 0x04, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03,
    0x00, 0x00, 0x00, 0x02, 0x64, 0x00, 0x00, 0x00, 0x33, 0x56, 0x66, 0x03,
    // DestroyPool, 23 bytes
    0x17, 0x00, 0x05, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03,
    0x00, 0x00, 0x00, 0xC4, 0xE7, 0x9C, 0xD3,
    // SetPolicy, 28 bytes
    0x1C, 0x00, 0x06, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04,
    0x00, 0x00, 0x00, 0x01, 0x0D, 0x0C, 0x0B, 0x0A, 0xEF, 0xF8, 0x26, 0xA6,
    // Put, 48 bytes
    0x30, 0x00, 0x07, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04,
    0x00, 0x00, 0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x18, 0x17, 0x16, 0x15, 0x14,
    0x13, 0x12, 0x11, 0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21, 0x01, 0xFD, 0x34, 0x7C, 0xF9,
    // Take, 39 bytes
    0x27, 0x00, 0x08, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04,
    0x00, 0x00, 0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x18, 0x17, 0x16, 0x15, 0x14,
    0x13, 0x12, 0x11, 0x73, 0x84, 0x1E, 0xF2,
    // Evict, 39 bytes
    0x27, 0x00, 0x09, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04,
    0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x3F, 0xEA, 0xE7, 0x6B,
    // Flush, 39 bytes
    0x27, 0x00, 0x0A, 0x0A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04,
    0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x0B, 0x53, 0x45, 0x35,
    // FlushFile, 31 bytes
    0x1F, 0x00, 0x0B, 0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04,
    0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x6F, 0x7A, 0x07, 0x60,
    // Epoch, 19 bytes
    0x13, 0x00, 0x0C, 0x0C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xCE,
    0x65, 0xC0, 0xA5,
    // SetMemCapacity, 23 bytes
    0x17, 0x00, 0x0D, 0x0D, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xAB, 0x04, 0x5E, 0xFF,
    // SetSsdCapacity, 23 bytes
    0x17, 0x00, 0x0E, 0x0E, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xB6, 0xA4, 0x8E, 0x29,
    // SetMode, 16 bytes
    0x10, 0x00, 0x0F, 0x0F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x59, 0x8F, 0x78, 0x2E,
    // SsdDrain, 15 bytes
    0x0F, 0x00, 0x10, 0x10, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x15, 0x51, 0xB8, 0x90,
    // WearTotals, 35 bytes
    0x23, 0x00, 0x11, 0x11, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x39,
    0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x32, 0x09, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xB5,
    0x87, 0x22, 0x1F,
];

#[test]
fn golden_image_pins_the_wire_format() {
    let records = golden_records();
    let mut j = Journal::new();
    for (gen, rec) in &records {
        j.append_with_gen(rec, *gen);
    }
    assert_eq!(j.bytes(), GOLDEN_IMAGE, "the encoder left the wire format");
    let (replayed, stats) = Journal::replay(GOLDEN_IMAGE);
    assert_eq!(replayed, records, "the decoder left the wire format");
    assert!(!stats.torn_tail && !stats.corrupt);
    assert_eq!(stats.bytes_consumed, GOLDEN_IMAGE.len());
}
