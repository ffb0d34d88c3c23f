//! Block addressing.
//!
//! Both the guest page cache and the hypervisor cache index file data at
//! page granularity by `(file, block-offset)` — exactly the key the Linux
//! cleancache interface passes down (`inode number`, `page index`).

use std::fmt;

/// The unit of caching, in bytes.
///
/// The paper's implementation caches 4 KiB pages; this reproduction uses a
/// 64 KiB block as the accounting unit so that gigabyte-scale,
/// thousand-second experiments stay tractable (16× fewer simulation
/// events). Every derived quantity — device transfer times, store
/// capacities, throughput — is computed from this constant, so the choice
/// scales the resolution of the model, not its behaviour.
pub const PAGE_SIZE: u64 = 64 * 1024;

/// A file identifier — stands in for the guest inode number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inode{}", self.0)
    }
}

/// The address of one cached page: a file and a page-granularity offset
/// within it.
///
/// # Example
///
/// ```
/// use ddc_storage::{BlockAddr, FileId, PAGE_SIZE};
///
/// let a = BlockAddr::new(FileId(7), 3);
/// assert_eq!(a.byte_offset(), 3 * PAGE_SIZE);
/// assert_eq!(a.next(), BlockAddr::new(FileId(7), 4));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr {
    /// Owning file.
    pub file: FileId,
    /// Page index within the file.
    pub block: u64,
}

impl BlockAddr {
    /// Creates an address from a file and page index.
    pub const fn new(file: FileId, block: u64) -> BlockAddr {
        BlockAddr { file, block }
    }

    /// The byte offset of the page within the file.
    pub const fn byte_offset(self) -> u64 {
        self.block * PAGE_SIZE
    }

    /// The next sequential page of the same file.
    pub const fn next(self) -> BlockAddr {
        BlockAddr {
            file: self.file,
            block: self.block + 1,
        }
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.block)
    }
}

/// Number of whole pages needed to hold `bytes` bytes.
pub fn pages_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_offset_is_page_multiple() {
        let a = BlockAddr::new(FileId(1), 10);
        assert_eq!(a.byte_offset(), 10 * PAGE_SIZE);
    }

    #[test]
    fn next_advances_block_only() {
        let a = BlockAddr::new(FileId(5), 0);
        let b = a.next();
        assert_eq!(b.file, FileId(5));
        assert_eq!(b.block, 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(BlockAddr::new(FileId(3), 9).to_string(), "inode3:9");
    }

    #[test]
    fn pages_for_bytes_rounds_up() {
        assert_eq!(pages_for_bytes(0), 0);
        assert_eq!(pages_for_bytes(1), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE + 1), 2);
        assert_eq!(pages_for_bytes(10 * PAGE_SIZE), 10);
    }

    #[test]
    fn ordering_is_file_then_block() {
        let mut v = vec![
            BlockAddr::new(FileId(2), 0),
            BlockAddr::new(FileId(1), 9),
            BlockAddr::new(FileId(1), 2),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                BlockAddr::new(FileId(1), 2),
                BlockAddr::new(FileId(1), 9),
                BlockAddr::new(FileId(2), 0),
            ]
        );
    }
}
