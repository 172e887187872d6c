//! Runtime code widths: pick the narrowest
//! [`CodeWord`](crate::code::CodeWord) that fits a code length.
//!
//! Everything in this crate is generic over `CodeWord` at compile time —
//! [`HashTable<C>`](crate::table::HashTable), the probers, the engines, the
//! live layer. But the code length `m` is a *runtime* value (a `--bits`
//! flag, a snapshot header field), so a caller that builds or loads an
//! index branches once on a [`CodeWidth`] and instantiates the generic
//! stack at the matching type. The `gqr` command line does that in one
//! `match` over [`CodeWidth`], around [`crate::persist::assemble_index`]
//! and [`crate::live::MutableIndex::from_snapshot_file`].
//! `SearchRequest`/`SearchResponse` and the HTTP wire schema never see the
//! width — it is chosen strictly at index construction/load time.
//!
//! Narrowing rule: [`CodeWidth::narrowest_for`] picks the smallest width
//! whose capacity is ≥ `m` (m = 48 → 64-bit words, m = 100 → 128, m = 200
//! → 256). Snapshots record the width they were written with
//! ([`crate::persist::SnapshotFile::code_width`]); loads dispatch on that
//! recorded value rather than re-deriving it, so a file round-trips even
//! if the narrowing rule ever changes.

/// The code widths with a [`CodeWord`](crate::code::CodeWord)
/// implementation, as a runtime value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CodeWidth {
    /// 32-bit codes (`u32`).
    W32,
    /// 64-bit codes (`u64`) — the default.
    W64,
    /// 128-bit codes (`u128`).
    W128,
    /// 192-bit codes (`[u64; 3]`).
    W192,
    /// 256-bit codes (`[u64; 4]`).
    W256,
}

impl CodeWidth {
    /// Every width, narrowest first.
    pub const ALL: [CodeWidth; 5] = [
        CodeWidth::W32,
        CodeWidth::W64,
        CodeWidth::W128,
        CodeWidth::W192,
        CodeWidth::W256,
    ];

    /// Capacity in bits.
    pub fn bits(self) -> usize {
        match self {
            CodeWidth::W32 => 32,
            CodeWidth::W64 => 64,
            CodeWidth::W128 => 128,
            CodeWidth::W192 => 192,
            CodeWidth::W256 => 256,
        }
    }

    /// The width whose capacity is exactly `bits` (as recorded in a
    /// snapshot header), or `None` for anything else.
    pub fn from_bits(bits: usize) -> Option<CodeWidth> {
        CodeWidth::ALL.into_iter().find(|w| w.bits() == bits)
    }

    /// The narrowest width that can hold an `m`-bit code, or `None` when
    /// `m` is zero or beyond 256.
    pub fn narrowest_for(m: usize) -> Option<CodeWidth> {
        if m == 0 {
            return None;
        }
        CodeWidth::ALL.into_iter().find(|w| w.bits() >= m)
    }
}

impl std::fmt::Display for CodeWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-bit", self.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::VALID_CODE_WIDTHS;

    #[test]
    fn narrowest_width_fits_m() {
        assert_eq!(CodeWidth::narrowest_for(0), None);
        assert_eq!(CodeWidth::narrowest_for(1), Some(CodeWidth::W32));
        assert_eq!(CodeWidth::narrowest_for(32), Some(CodeWidth::W32));
        assert_eq!(CodeWidth::narrowest_for(33), Some(CodeWidth::W64));
        assert_eq!(CodeWidth::narrowest_for(64), Some(CodeWidth::W64));
        assert_eq!(CodeWidth::narrowest_for(65), Some(CodeWidth::W128));
        assert_eq!(CodeWidth::narrowest_for(128), Some(CodeWidth::W128));
        assert_eq!(CodeWidth::narrowest_for(129), Some(CodeWidth::W192));
        assert_eq!(CodeWidth::narrowest_for(200), Some(CodeWidth::W256));
        assert_eq!(CodeWidth::narrowest_for(256), Some(CodeWidth::W256));
        assert_eq!(CodeWidth::narrowest_for(257), None);
    }

    #[test]
    fn from_bits_is_exact() {
        for w in CodeWidth::ALL {
            assert_eq!(CodeWidth::from_bits(w.bits()), Some(w));
        }
        assert_eq!(CodeWidth::from_bits(48), None);
        assert_eq!(CodeWidth::from_bits(0), None);
    }

    #[test]
    fn valid_widths_match_the_dispatchable_set() {
        let dispatchable: Vec<u16> = CodeWidth::ALL.iter().map(|w| w.bits() as u16).collect();
        assert_eq!(dispatchable, VALID_CODE_WIDTHS);
    }
}
