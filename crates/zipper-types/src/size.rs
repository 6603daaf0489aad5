//! Byte-size helper newtype.
//!
//! Experiment setups in the paper are described in MB/GB (block sizes of
//! 1–8 MB, 400 GB moved in Fig. 2, 3,136 GB in Fig. 12/13). [`ByteSize`]
//! keeps those quantities readable in configuration code and renders them
//! back in human units in reports.

use std::fmt;
use std::ops::{Add, AddAssign, Mul};

/// A byte count. Uses binary units (1 MiB = 2^20) as HPC I/O tooling does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    pub const ZERO: ByteSize = ByteSize(0);

    #[inline]
    pub const fn bytes(n: u64) -> Self {
        ByteSize(n)
    }

    #[inline]
    pub const fn kib(n: u64) -> Self {
        ByteSize(n << 10)
    }

    #[inline]
    pub const fn mib(n: u64) -> Self {
        ByteSize(n << 20)
    }

    #[inline]
    pub const fn gib(n: u64) -> Self {
        ByteSize(n << 30)
    }

    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1u64 << 20) as f64
    }

    #[inline]
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1u64 << 30) as f64
    }

    /// Number of whole blocks of `block` needed to hold `self`, i.e. the
    /// ceiling division used to split a step's output into fine-grain
    /// blocks.
    #[inline]
    pub fn blocks_of(self, block: ByteSize) -> u64 {
        assert!(block.0 > 0, "block size must be positive");
        self.0.div_ceil(block.0)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    #[inline]
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1 << 30 {
            write!(f, "{:.2}GiB", self.as_gib())
        } else if b >= 1 << 20 {
            write!(f, "{:.2}MiB", self.as_mib())
        } else if b >= 1 << 10 {
            write!(f, "{:.1}KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{}B", b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_scale() {
        assert_eq!(ByteSize::kib(1).as_u64(), 1024);
        assert_eq!(ByteSize::mib(1).as_u64(), 1 << 20);
        assert_eq!(ByteSize::gib(1).as_u64(), 1 << 30);
    }

    #[test]
    fn block_splitting_rounds_up() {
        assert_eq!(ByteSize::mib(16).blocks_of(ByteSize::mib(1)), 16);
        assert_eq!(ByteSize::mib(16).blocks_of(ByteSize::mib(5)), 4);
        assert_eq!(ByteSize::bytes(1).blocks_of(ByteSize::mib(1)), 1);
        assert_eq!(ByteSize::ZERO.blocks_of(ByteSize::mib(1)), 0);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(ByteSize::bytes(12).to_string(), "12B");
        assert_eq!(ByteSize::mib(20).to_string(), "20.00MiB");
        assert_eq!(ByteSize::gib(3).to_string(), "3.00GiB");
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ByteSize::mib(1) + ByteSize::mib(2), ByteSize::mib(3));
        assert_eq!(ByteSize::mib(2) * 3, ByteSize::mib(6));
    }
}
