//! Identifier newtypes shared between the guest and hypervisor sides.

use std::fmt;

/// Identifies one virtual machine at the hypervisor. The hypervisor cache
/// extends every guest-provided key with the VM id (paper §2.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// A cache pool identifier. In vanilla cleancache a pool corresponds to a
/// file system; in DoubleDecker a pool is assigned to each *application
/// container* when its cgroup is created (paper §3.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(pub u32);

impl fmt::Display for PoolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool{}", self.0)
    }
}

/// A monotone per-page version stamp used to verify cache coherence: the
/// guest bumps the version when it dirties a page, so a hit returning an
/// older version than the guest last wrote would be a staleness bug.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageVersion(pub u64);

impl PageVersion {
    /// The version of a never-written page.
    pub const INITIAL: PageVersion = PageVersion(0);

    /// The next version after an overwrite.
    pub fn bump(self) -> PageVersion {
        PageVersion(self.0 + 1)
    }
}

impl fmt::Display for PageVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(VmId(1).to_string(), "vm1");
        assert_eq!(PoolId(2).to_string(), "pool2");
        assert_eq!(PageVersion(3).to_string(), "v3");
    }

    #[test]
    fn version_bump_monotone() {
        let v = PageVersion::INITIAL;
        let v2 = v.bump();
        assert!(v2 > v);
        assert_eq!(v2, PageVersion(1));
    }
}
