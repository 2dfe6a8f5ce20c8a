//! The SOC container and hierarchy queries.

use std::fmt;

use crate::core::{CoreId, CoreSpec};
use crate::error::SocError;

/// A system-on-chip: cores plus their embedding hierarchy.
///
/// Cores are added bottom-up (children before parents, since a parent's
/// `children` list references existing [`CoreId`]s). Cores not embedded
/// anywhere are *top-level*; their terminals are the chip pins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Soc {
    name: String,
    cores: Vec<CoreSpec>,
}

impl Soc {
    /// Create an empty SOC.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Soc {
        Soc {
            name: name.into(),
            cores: Vec::new(),
        }
    }

    /// The SOC name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a core; children must already exist.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::DuplicateCore`] or [`SocError::UnknownCore`].
    pub fn add_core(&mut self, spec: CoreSpec) -> Result<CoreId, SocError> {
        if self.cores.iter().any(|c| c.name == spec.name) {
            return Err(SocError::DuplicateCore { name: spec.name });
        }
        for child in &spec.children {
            if child.index() >= self.cores.len() {
                return Err(SocError::UnknownCore {
                    name: child.to_string(),
                });
            }
        }
        self.cores.push(spec);
        Ok(CoreId::from_index(self.cores.len() - 1))
    }

    /// Access a core.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this SOC.
    #[must_use]
    pub fn core(&self, id: CoreId) -> &CoreSpec {
        &self.cores[id.index()]
    }

    /// Number of cores (including any top-level glue core).
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Iterate `(CoreId, &CoreSpec)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (CoreId, &CoreSpec)> {
        self.cores
            .iter()
            .enumerate()
            .map(|(i, c)| (CoreId::from_index(i), c))
    }

    /// Find a core by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<CoreId> {
        self.cores
            .iter()
            .position(|c| c.name == name)
            .map(CoreId::from_index)
    }

    /// Whether core `id` is embedded in no parent, so that its terminals
    /// are chip pins. Scans the children lists; allocates nothing.
    #[must_use]
    pub fn is_top_level(&self, id: CoreId) -> bool {
        !self.cores.iter().any(|c| c.children.contains(&id))
    }

    /// Cores not embedded in any parent. Their terminals are chip pins.
    #[must_use]
    pub fn top_level_cores(&self) -> Vec<CoreId> {
        self.iter()
            .map(|(id, _)| id)
            .filter(|&id| self.is_top_level(id))
            .collect()
    }

    /// Chip-level pin counts `(I, O, B)`: the summed terminals of the
    /// top-level cores; `None` when a sum overflows `u64` (a corrupt
    /// `.soc` can carry near-`u64::MAX` counts).
    #[must_use]
    pub fn chip_pins(&self) -> Option<(u64, u64, u64)> {
        self.iter()
            .filter(|&(id, _)| self.is_top_level(id))
            .map(|(_, c)| c)
            .try_fold((0u64, 0u64, 0u64), |(i, o, b), c| {
                Some((
                    i.checked_add(c.inputs)?,
                    o.checked_add(c.outputs)?,
                    b.checked_add(c.bidirs)?,
                ))
            })
    }

    /// Total scan cells over all cores — `S_chip` in Equation 1; `None`
    /// when the sum overflows `u64`.
    #[must_use]
    pub fn total_scan_cells(&self) -> Option<u64> {
        self.cores
            .iter()
            .try_fold(0u64, |sum, c| sum.checked_add(c.scan_cells))
    }

    /// Maximum per-core pattern count — the paper's lower bound on the
    /// monolithic pattern count (Equation 2) and the `T` of Equation 3.
    #[must_use]
    pub fn max_core_patterns(&self) -> u64 {
        self.cores.iter().map(|c| c.patterns).max().unwrap_or(0)
    }

    /// The flattened single-core view of this SOC: one core with the
    /// chip pins and the summed scan cells, tested with `t_mono`
    /// patterns — the "monolithic entity (with isolation logic ripped
    /// out)" of the paper's §3, as a [`CoreSpec`]; `None` when the chip
    /// pins or scan cells overflow `u64`.
    ///
    /// Feeding the result back through the modular TDV equation
    /// reproduces Equation 1 exactly (a handy cross-check used in the
    /// test suite).
    #[must_use]
    pub fn flattened_spec(&self, t_mono: u64) -> Option<CoreSpec> {
        let (i, o, b) = self.chip_pins()?;
        Some(CoreSpec::leaf(
            format!("{}.flat", self.name),
            i,
            o,
            b,
            self.total_scan_cells()?,
            t_mono,
        ))
    }

    /// Validate the hierarchy: at least one core, every core embedded at
    /// most once, and no cycles.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), SocError> {
        if self.cores.is_empty() {
            return Err(SocError::Empty);
        }
        let mut embed_count = vec![0usize; self.cores.len()];
        for c in &self.cores {
            for child in &c.children {
                if child.index() >= self.cores.len() {
                    return Err(SocError::UnknownCore {
                        name: child.to_string(),
                    });
                }
                embed_count[child.index()] += 1;
            }
        }
        if let Some(i) = embed_count.iter().position(|&k| k > 1) {
            return Err(SocError::MultiplyEmbedded {
                name: self.cores[i].name.clone(),
            });
        }
        // Cycle check: children always have smaller ids than parents when
        // built through `add_core`, but deserialized/hand-built SOCs could
        // violate that, so walk properly.
        let mut state = vec![0u8; self.cores.len()]; // 0 unvisited, 1 on stack, 2 done
        for start in 0..self.cores.len() {
            if state[start] != 0 {
                continue;
            }
            // Iterative DFS.
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            state[start] = 1;
            while let Some(frame) = stack.last_mut() {
                let node = frame.0;
                let children = &self.cores[node].children;
                if frame.1 < children.len() {
                    let ch = children[frame.1].index();
                    frame.1 += 1;
                    match state[ch] {
                        0 => {
                            state[ch] = 1;
                            stack.push((ch, 0));
                        }
                        1 => {
                            return Err(SocError::CyclicHierarchy {
                                name: self.cores[ch].name.clone(),
                            });
                        }
                        _ => {}
                    }
                } else {
                    state[node] = 2;
                    stack.pop();
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Soc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} cores, ", self.name, self.core_count())?;
        match (self.chip_pins(), self.total_scan_cells()) {
            (Some((i, o, b)), Some(s)) => write!(f, "chip I={i} O={o} B={b}, S_total={s}"),
            _ => write!(f, "chip pins or S_total overflow u64"),
        }
    }
}

impl<'a> IntoIterator for &'a Soc {
    type Item = (CoreId, &'a CoreSpec);
    type IntoIter = Box<dyn Iterator<Item = (CoreId, &'a CoreSpec)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Soc {
        let mut s = Soc::new("s");
        let a = s.add_core(CoreSpec::leaf("a", 10, 5, 0, 100, 50)).unwrap();
        let b = s.add_core(CoreSpec::leaf("b", 4, 4, 1, 20, 200)).unwrap();
        s.add_core(CoreSpec::parent("top", 30, 12, 0, 0, 3, vec![a, b]))
            .unwrap();
        s
    }

    #[test]
    fn hierarchy_queries() {
        let s = sample();
        s.validate().unwrap();
        assert_eq!(s.core_count(), 3);
        assert_eq!(s.top_level_cores(), vec![CoreId::from_index(2)]);
        assert!(!s.is_top_level(CoreId::from_index(0)));
        assert!(s.is_top_level(CoreId::from_index(2)));
        assert_eq!(s.chip_pins(), Some((30, 12, 0)));
        assert_eq!(s.total_scan_cells(), Some(120));
        assert_eq!(s.max_core_patterns(), 200);
        assert_eq!(s.find("b"), Some(CoreId::from_index(1)));
        assert_eq!(s.find("zz"), None);
    }

    #[test]
    fn multiple_top_level_cores_sum_pins() {
        let mut s = Soc::new("flat");
        s.add_core(CoreSpec::leaf("a", 3, 1, 0, 5, 10)).unwrap();
        s.add_core(CoreSpec::leaf("b", 4, 2, 1, 5, 20)).unwrap();
        assert_eq!(s.chip_pins(), Some((7, 3, 1)));
        assert_eq!(s.top_level_cores().len(), 2);
        // Sums that overflow u64 are reported, not clamped.
        let m = u64::MAX;
        s.add_core(CoreSpec::leaf("c", m, 0, 0, m, 1)).unwrap();
        assert_eq!(s.chip_pins(), None);
        assert_eq!(s.total_scan_cells(), None);
        assert_eq!(s.flattened_spec(1), None);
        assert!(s.to_string().ends_with("chip pins or S_total overflow u64"));
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut s = Soc::new("d");
        s.add_core(CoreSpec::leaf("a", 1, 1, 0, 0, 1)).unwrap();
        let err = s.add_core(CoreSpec::leaf("a", 1, 1, 0, 0, 1)).unwrap_err();
        assert!(matches!(err, SocError::DuplicateCore { .. }));
    }

    #[test]
    fn unknown_child_rejected() {
        let mut s = Soc::new("u");
        let err = s
            .add_core(CoreSpec::parent(
                "p",
                1,
                1,
                0,
                0,
                1,
                vec![CoreId::from_index(7)],
            ))
            .unwrap_err();
        assert!(matches!(err, SocError::UnknownCore { .. }));
    }

    #[test]
    fn double_embedding_rejected() {
        let mut s = Soc::new("m");
        let a = s.add_core(CoreSpec::leaf("a", 1, 1, 0, 0, 1)).unwrap();
        s.add_core(CoreSpec::parent("p1", 1, 1, 0, 0, 1, vec![a]))
            .unwrap();
        s.add_core(CoreSpec::parent("p2", 1, 1, 0, 0, 1, vec![a]))
            .unwrap();
        assert!(matches!(
            s.validate(),
            Err(SocError::MultiplyEmbedded { .. })
        ));
    }

    #[test]
    fn empty_soc_invalid() {
        assert!(matches!(Soc::new("e").validate(), Err(SocError::Empty)));
    }

    #[test]
    fn display_summarizes() {
        let s = sample();
        assert!(s.to_string().contains("3 cores"));
    }

    #[test]
    fn flattened_spec_sums_the_chip() {
        let s = sample();
        let flat = s.flattened_spec(500).unwrap();
        assert_eq!(flat.inputs, 30);
        assert_eq!(flat.outputs, 12);
        assert_eq!(flat.scan_cells, 120);
        assert_eq!(flat.patterns, 500);
        assert!(!flat.is_hierarchical());
    }
}
