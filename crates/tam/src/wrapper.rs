//! IEEE 1500 wrapper chain design (best-fit-decreasing balancing).
//!
//! A wrapped core exposes `w` *wrapper chains* to the TAM. Each chain
//! concatenates wrapper input cells, internal scan chains, and wrapper
//! output cells. Test time is driven by the longest scan-in and scan-out
//! chains, so the design goal is balance — the classic heuristic (from
//! Marinissen et al.'s wrapper design work) assigns internal scan chains
//! by best-fit-decreasing and then pads with wrapper cells.

use modsoc_soc::CoreSpec;

/// The wrapper-design view of a core: terminal counts plus internal scan
/// chain lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperCore {
    /// Core name.
    pub name: String,
    /// Functional inputs (each gets a wrapper input cell).
    pub inputs: usize,
    /// Functional outputs (each gets a wrapper output cell).
    pub outputs: usize,
    /// Internal scan chain lengths.
    pub scan_chains: Vec<usize>,
    /// Stand-alone test pattern count.
    pub patterns: u64,
}

impl WrapperCore {
    /// Create a wrapper-design view.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        inputs: usize,
        outputs: usize,
        scan_chains: Vec<usize>,
    ) -> WrapperCore {
        WrapperCore {
            name: name.into(),
            inputs,
            outputs,
            scan_chains,
            patterns: 0,
        }
    }

    /// Builder-style pattern count.
    #[must_use]
    pub fn with_patterns(mut self, patterns: u64) -> WrapperCore {
        self.patterns = patterns;
        self
    }

    /// Derive a wrapper view from a [`CoreSpec`], splitting its scan
    /// cells into `chains` balanced internal chains (the "perfectly
    /// balanced scan chains" assumption of the paper's §3).
    #[must_use]
    pub fn from_core_spec(spec: &CoreSpec, chains: usize) -> WrapperCore {
        let chains = chains.max(1);
        let total = spec.scan_cells as usize;
        let base = total / chains;
        let extra = total % chains;
        let scan_chains: Vec<usize> = (0..chains)
            .map(|i| base + usize::from(i < extra))
            .filter(|&l| l > 0)
            .collect();
        WrapperCore {
            name: spec.name.clone(),
            inputs: spec.inputs as usize,
            outputs: spec.outputs as usize,
            scan_chains,
            patterns: spec.patterns,
        }
    }

    /// Total cells a wrapper must move per pattern:
    /// `I + O + Σ scan` (cf. `2S + ISOCOST` counts stimulus and response
    /// separately; here a scan cell is loaded and unloaded through the
    /// same chain).
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.inputs + self.outputs + self.scan_chains.iter().sum::<usize>()
    }
}

/// One wrapper chain of a design.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WrapperChain {
    /// Indices of the internal scan chains assigned here.
    pub scan_chain_indices: Vec<usize>,
    /// Internal scan cells on this chain.
    pub scan_cells: usize,
    /// Wrapper input cells on this chain.
    pub input_cells: usize,
    /// Wrapper output cells on this chain.
    pub output_cells: usize,
}

impl WrapperChain {
    /// Scan-in length: cells shifted in per pattern
    /// (input cells + scan cells).
    #[must_use]
    pub fn scan_in_len(&self) -> usize {
        self.input_cells + self.scan_cells
    }

    /// Scan-out length: cells shifted out per pattern
    /// (scan cells + output cells).
    #[must_use]
    pub fn scan_out_len(&self) -> usize {
        self.scan_cells + self.output_cells
    }
}

/// A wrapper design: the core's cells distributed over `w` chains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperDesign {
    chains: Vec<WrapperChain>,
    patterns: u64,
}

impl WrapperDesign {
    /// The wrapper chains.
    #[must_use]
    pub fn chains(&self) -> &[WrapperChain] {
        &self.chains
    }

    /// Longest scan-in chain.
    #[must_use]
    pub fn max_scan_in(&self) -> usize {
        self.chains
            .iter()
            .map(WrapperChain::scan_in_len)
            .max()
            .unwrap_or(0)
    }

    /// Longest scan-out chain.
    #[must_use]
    pub fn max_scan_out(&self) -> usize {
        self.chains
            .iter()
            .map(WrapperChain::scan_out_len)
            .max()
            .unwrap_or(0)
    }

    /// Core test time in TAM clock cycles for `p` patterns (the classic
    /// formula): `(1 + max(si, so)) · p + min(si, so)` — shift-in of the
    /// next pattern overlaps shift-out of the previous.
    #[must_use]
    pub fn test_time(&self, patterns: u64) -> u64 {
        let si = self.max_scan_in() as u64;
        let so = self.max_scan_out() as u64;
        (1 + si.max(so)) * patterns + si.min(so)
    }

    /// Test time using the design's own pattern count.
    #[must_use]
    pub fn test_time_self(&self) -> u64 {
        self.test_time(self.patterns)
    }
}

/// Design a wrapper with `width` chains using best-fit-decreasing.
///
/// Internal scan chains are assigned longest-first to the currently
/// shortest wrapper chain; wrapper input cells then pad the shortest
/// scan-in sides and output cells the shortest scan-out sides (both are
/// individually placeable, so they balance near-perfectly).
///
/// A `width` of zero is treated as one; a width larger than needed
/// leaves empty chains in place so the TAM sees the requested interface.
#[must_use]
pub fn design_wrapper(core: &WrapperCore, width: usize) -> WrapperDesign {
    let width = width.max(1);
    let mut chains = vec![WrapperChain::default(); width];

    // Best-fit-decreasing over internal scan chains.
    let mut order: Vec<usize> = (0..core.scan_chains.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(core.scan_chains[i]));
    for i in order {
        let target = (0..width)
            .min_by_key(|&c| chains[c].scan_cells)
            .expect("width >= 1");
        chains[target].scan_chain_indices.push(i);
        chains[target].scan_cells += core.scan_chains[i];
    }

    // Input cells pad the scan-in side one at a time.
    for _ in 0..core.inputs {
        let target = (0..width)
            .min_by_key(|&c| chains[c].scan_in_len())
            .expect("width >= 1");
        chains[target].input_cells += 1;
    }
    // Output cells pad the scan-out side.
    for _ in 0..core.outputs {
        let target = (0..width)
            .min_by_key(|&c| chains[c].scan_out_len())
            .expect("width >= 1");
        chains[target].output_cells += 1;
    }

    WrapperDesign {
        chains,
        patterns: core.patterns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_chain_concatenates_everything() {
        let core = WrapperCore::new("c", 3, 2, vec![10, 5]);
        let d = design_wrapper(&core, 1);
        assert_eq!(d.chains().len(), 1);
        assert_eq!(d.max_scan_in(), 3 + 15);
        assert_eq!(d.max_scan_out(), 15 + 2);
    }

    #[test]
    fn bfd_balances_scan_chains() {
        let core = WrapperCore::new("c", 0, 0, vec![30, 20, 20, 10, 10, 10]);
        let d = design_wrapper(&core, 3);
        // Total 100 over 3 chains: best-fit-decreasing gives 30/40/30 or
        // similar; max must be at most 40.
        assert!(d.max_scan_in() <= 40, "{}", d.max_scan_in());
        let total: usize = d.chains().iter().map(|c| c.scan_cells).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn io_cells_fill_valleys() {
        let core = WrapperCore::new("c", 12, 12, vec![10]);
        let d = design_wrapper(&core, 2);
        // The empty second chain should absorb most I/O cells.
        let si: Vec<usize> = d.chains().iter().map(WrapperChain::scan_in_len).collect();
        assert!((si[0] as i64 - si[1] as i64).abs() <= 11);
    }

    #[test]
    fn test_time_formula() {
        let core = WrapperCore::new("c", 0, 0, vec![100]).with_patterns(10);
        let d = design_wrapper(&core, 1);
        // (1 + 100) * 10 + 100 = 1110.
        assert_eq!(d.test_time_self(), 1_110);
    }

    #[test]
    fn wider_wrapper_is_never_slower() {
        let core = WrapperCore::new("c", 20, 10, vec![64, 32, 32, 16, 8]).with_patterns(50);
        let mut last = u64::MAX;
        for w in 1..=6 {
            let t = design_wrapper(&core, w).test_time_self();
            assert!(t <= last, "width {w}: {t} > {last}");
            last = t;
        }
    }

    #[test]
    fn from_core_spec_balances_cells() {
        let spec = CoreSpec::leaf("x", 8, 4, 0, 100, 25);
        let core = WrapperCore::from_core_spec(&spec, 3);
        assert_eq!(core.scan_chains, vec![34, 33, 33]);
        assert_eq!(core.patterns, 25);
        assert_eq!(core.total_cells(), 112);
    }

    #[test]
    fn from_core_spec_zero_scan() {
        let spec = CoreSpec::leaf("x", 8, 4, 0, 0, 25);
        let core = WrapperCore::from_core_spec(&spec, 4);
        assert!(core.scan_chains.is_empty());
        let d = design_wrapper(&core, 2);
        assert_eq!(d.max_scan_in() + d.max_scan_out(), 6);
    }

    #[test]
    fn zero_width_clamps_to_one() {
        let core = WrapperCore::new("c", 1, 1, vec![4]);
        let d = design_wrapper(&core, 0);
        assert_eq!(d.chains().len(), 1);
    }
}
