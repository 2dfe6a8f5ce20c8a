//! Core descriptors.

use std::fmt;

/// Identifier of a core within a [`crate::Soc`], assigned in insertion
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub(crate) u32);

impl CoreId {
    /// The dense index of this core.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index (for tables indexed by
    /// [`CoreId::index`]).
    #[must_use]
    pub fn from_index(i: usize) -> CoreId {
        CoreId(u32::try_from(i).expect("core index fits in u32"))
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// The test-relevant description of one core: exactly the parameters the
/// paper's Equations 1–8 consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSpec {
    /// Core name (unique within its SOC).
    pub name: String,
    /// Functional input terminals `I`.
    pub inputs: u64,
    /// Functional output terminals `O`.
    pub outputs: u64,
    /// Bidirectional terminals `B` (each needs a stimulus and a response
    /// bit per pattern).
    pub bidirs: u64,
    /// Internal scan cells `S`.
    pub scan_cells: u64,
    /// Test pattern count `T` for this core's stand-alone test.
    pub patterns: u64,
    /// Direct children (cores embedded inside this one); their wrappers
    /// go to ExTest while this core is tested.
    pub children: Vec<CoreId>,
}

impl CoreSpec {
    /// A leaf core (no embedded children).
    #[must_use]
    pub fn leaf(
        name: impl Into<String>,
        inputs: u64,
        outputs: u64,
        bidirs: u64,
        scan_cells: u64,
        patterns: u64,
    ) -> CoreSpec {
        CoreSpec {
            name: name.into(),
            inputs,
            outputs,
            bidirs,
            scan_cells,
            patterns,
            children: Vec::new(),
        }
    }

    /// A hierarchical core embedding `children`.
    #[must_use]
    pub fn parent(
        name: impl Into<String>,
        inputs: u64,
        outputs: u64,
        bidirs: u64,
        scan_cells: u64,
        patterns: u64,
        children: Vec<CoreId>,
    ) -> CoreSpec {
        CoreSpec {
            name: name.into(),
            inputs,
            outputs,
            bidirs,
            scan_cells,
            patterns,
            children,
        }
    }

    /// Whether this core embeds others.
    #[must_use]
    pub fn is_hierarchical(&self) -> bool {
        !self.children.is_empty()
    }
}

impl fmt::Display for CoreSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: I={} O={} B={} S={} T={}",
            self.name, self.inputs, self.outputs, self.bidirs, self.scan_cells, self.patterns
        )?;
        if self.is_hierarchical() {
            write!(f, " ({} children)", self.children.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_parent() {
        let l = CoreSpec::leaf("l", 3, 4, 2, 10, 7);
        assert!(!l.is_hierarchical());
        let p = CoreSpec::parent("p", 1, 1, 0, 0, 1, vec![CoreId::from_index(0)]);
        assert!(p.is_hierarchical());
        assert!(p.to_string().contains("children"));
    }

    #[test]
    fn core_id_round_trip() {
        let id = CoreId::from_index(5);
        assert_eq!(id.index(), 5);
        assert_eq!(id.to_string(), "core5");
    }
}
