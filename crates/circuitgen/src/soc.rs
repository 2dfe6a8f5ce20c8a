//! SOC netlist stitching: compose cores into a chip and flatten it.
//!
//! Reproduces the paper's Figure 4 (SOC1) and Figure 5 (SOC2)
//! constructions: chip inputs drive some core inputs, core outputs drive
//! other cores' inputs and the chip outputs. [`SocNetlist::flatten`]
//! produces the *monolithic* netlist — isolation "ripped out", all
//! inter-core wires direct — which is what the paper's monolithic ATPG
//! run operates on.

use modsoc_netlist::{Circuit, NetlistError, NodeId};

use crate::generator::generate;
use crate::profile::{iscas, CoreProfile};

/// What drives one core input port (or one chip output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortSource {
    /// Driven by chip-level primary input `index`.
    ChipInput(usize),
    /// Driven by output port `output` of core `core`.
    CoreOutput {
        /// Index of the driving core.
        core: usize,
        /// Output port index on that core.
        output: usize,
    },
}

/// A structural SOC: cores plus a complete wiring of every core input and
/// every chip output.
#[derive(Debug, Clone)]
pub struct SocNetlist {
    name: String,
    cores: Vec<Circuit>,
    /// Per core, per input port: its driver.
    input_wiring: Vec<Vec<PortSource>>,
    /// Chip outputs, each a core output.
    chip_outputs: Vec<(usize, usize)>,
    chip_inputs: usize,
}

impl SocNetlist {
    /// Start building an SOC with the given chip input count.
    #[must_use]
    pub fn builder(name: impl Into<String>, chip_inputs: usize) -> SocNetlistBuilder {
        SocNetlistBuilder {
            name: name.into(),
            chip_inputs,
            cores: Vec::new(),
            input_wiring: Vec::new(),
            chip_outputs: Vec::new(),
        }
    }

    /// The SOC name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The embedded cores, in index order.
    #[must_use]
    pub fn cores(&self) -> &[Circuit] {
        &self.cores
    }

    /// Number of chip-level primary inputs.
    #[must_use]
    pub fn chip_input_count(&self) -> usize {
        self.chip_inputs
    }

    /// Number of chip-level primary outputs.
    #[must_use]
    pub fn chip_output_count(&self) -> usize {
        self.chip_outputs.len()
    }

    /// Total scan cells across all cores.
    #[must_use]
    pub fn total_scan_cells(&self) -> usize {
        self.cores.iter().map(Circuit::dff_count).sum()
    }

    /// Flatten into one monolithic netlist with all isolation removed:
    /// every inter-core wire becomes a direct connection, core input
    /// ports disappear, and only chip-level pins remain as primary I/O.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PortMismatch`] if the core-to-core wiring
    /// graph is cyclic (combinational cycles through cores cannot be
    /// flattened; wire through flip-flop boundaries instead).
    pub fn flatten(&self) -> Result<Circuit, NetlistError> {
        self.flatten_inner(false)
    }

    /// Flatten with IEEE 1500-style isolation *in place*: every core is
    /// first wrapped with dedicated cells on each I/O
    /// (see [`modsoc_netlist::wrapper::wrap_circuit`]), then stitched.
    /// This is the physical modular-test configuration — the netlist on
    /// which stand-alone core patterns are portable, at the cost of the
    /// paper's `ISOCOST` wrapper bits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SocNetlist::flatten`].
    pub fn flatten_wrapped(&self) -> Result<Circuit, NetlistError> {
        self.flatten_inner(true)
    }

    fn flatten_inner(&self, wrapped: bool) -> Result<Circuit, NetlistError> {
        let wrapped_cores: Vec<Circuit> = if wrapped {
            self.cores
                .iter()
                .map(|c| modsoc_netlist::wrapper::wrap_circuit(c).map(|w| w.circuit))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        let cores: Vec<&Circuit> = if wrapped {
            wrapped_cores.iter().collect()
        } else {
            self.cores.iter().collect()
        };
        let suffix = if wrapped { "wrapped" } else { "flat" };
        let mut flat = Circuit::new(format!("{}.{suffix}", self.name));
        let chip_ins: Vec<NodeId> = (0..self.chip_inputs)
            .map(|i| flat.add_input(format!("in{i}")))
            .collect();

        // Order cores so that every core's drivers are flattened first.
        let order = self.core_order()?;

        // Per core, the flat node id of each of its output ports.
        let mut core_outputs: Vec<Vec<NodeId>> = vec![Vec::new(); cores.len()];
        let mut fanin: Vec<NodeId> = Vec::new();
        for ci in order {
            let core = cores[ci];
            let prefix = format!("c{ci}.");
            // Resolve this core's input drivers.
            let mut map: Vec<Option<NodeId>> = vec![None; core.node_count()];
            for (port, &pi) in core.inputs().iter().enumerate() {
                let src = match self.input_wiring[ci][port] {
                    PortSource::ChipInput(k) => chip_ins[k],
                    PortSource::CoreOutput { core: c2, output } => core_outputs[c2][output],
                };
                map[pi.index()] = Some(src);
            }
            // Deferred DFFs first (their outputs are sources inside the core).
            for &ff in core.dffs() {
                let id = flat.add_dff_deferred(format!("{prefix}{}", core.node(ff).name))?;
                map[ff.index()] = Some(id);
            }
            // Combinational body in topological order.
            for id in core.topo_order()? {
                if map[id.index()].is_some() {
                    continue;
                }
                let node = core.node(id);
                fanin.clear();
                for f in &node.fanin {
                    fanin.push(map[f.index()].expect("topo order places fanins first"));
                }
                let nid = flat.add_gate(format!("{prefix}{}", node.name), node.kind, &fanin)?;
                map[id.index()] = Some(nid);
            }
            // Close DFF fanins.
            for &ff in core.dffs() {
                let data = core.node(ff).fanin.first().copied().ok_or_else(|| {
                    NetlistError::PortMismatch {
                        message: format!("core {ci} has an unwired flip-flop"),
                    }
                })?;
                let ffid = map[ff.index()].expect("dff placed");
                let dataid = map[data.index()].expect("all nodes placed");
                flat.set_fanin(ffid, &[dataid])?;
            }
            core_outputs[ci] = core
                .outputs()
                .iter()
                .map(|o| map[o.index()].expect("all nodes placed"))
                .collect();
        }
        for &(ci, port) in &self.chip_outputs {
            flat.mark_output(core_outputs[ci][port]);
        }
        flat.validate()?;
        Ok(flat)
    }

    /// Topological order of the core graph (edges: core output → core
    /// input).
    fn core_order(&self) -> Result<Vec<usize>, NetlistError> {
        let n = self.cores.len();
        let mut indegree = vec![0usize; n];
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (ci, wiring) in self.input_wiring.iter().enumerate() {
            let mut seen = vec![false; n];
            for src in wiring {
                if let PortSource::CoreOutput { core, .. } = *src {
                    if !seen[core] {
                        seen[core] = true;
                        deps[core].push(ci);
                        indegree[ci] += 1;
                    }
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for &w in &deps[v] {
                indegree[w] -= 1;
                if indegree[w] == 0 {
                    queue.push(w);
                }
            }
        }
        if queue.len() != n {
            return Err(NetlistError::PortMismatch {
                message: "core wiring graph is cyclic".into(),
            });
        }
        Ok(queue)
    }
}

/// Builder for [`SocNetlist`]; validates the wiring as it is added.
#[derive(Debug)]
pub struct SocNetlistBuilder {
    name: String,
    chip_inputs: usize,
    cores: Vec<Circuit>,
    input_wiring: Vec<Vec<Option<PortSource>>>,
    chip_outputs: Vec<(usize, usize)>,
}

impl SocNetlistBuilder {
    /// Add a core; returns its index.
    pub fn add_core(&mut self, core: Circuit) -> usize {
        self.input_wiring.push(vec![None; core.input_count()]);
        self.cores.push(core);
        self.cores.len() - 1
    }

    /// Wire one core input port.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PortMismatch`] for out-of-range indices or
    /// double-driven ports.
    pub fn wire(
        &mut self,
        core: usize,
        port: usize,
        source: PortSource,
    ) -> Result<(), NetlistError> {
        self.check_source(source)?;
        let slot = self
            .input_wiring
            .get_mut(core)
            .and_then(|w| w.get_mut(port))
            .ok_or_else(|| NetlistError::PortMismatch {
                message: format!("core {core} has no input port {port}"),
            })?;
        if slot.is_some() {
            return Err(NetlistError::PortMismatch {
                message: format!("core {core} input {port} driven twice"),
            });
        }
        *slot = Some(source);
        Ok(())
    }

    /// Wire a contiguous range of a core's inputs from consecutive chip
    /// inputs starting at `chip_start`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SocNetlistBuilder::wire`].
    pub fn wire_chip_range(
        &mut self,
        core: usize,
        port_start: usize,
        chip_start: usize,
        width: usize,
    ) -> Result<(), NetlistError> {
        for k in 0..width {
            self.wire(core, port_start + k, PortSource::ChipInput(chip_start + k))?;
        }
        Ok(())
    }

    /// Wire a contiguous range of a core's inputs from consecutive output
    /// ports of another core.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SocNetlistBuilder::wire`].
    pub fn wire_core_range(
        &mut self,
        core: usize,
        port_start: usize,
        from_core: usize,
        from_output_start: usize,
        width: usize,
    ) -> Result<(), NetlistError> {
        for k in 0..width {
            self.wire(
                core,
                port_start + k,
                PortSource::CoreOutput {
                    core: from_core,
                    output: from_output_start + k,
                },
            )?;
        }
        Ok(())
    }

    /// Declare a chip output driven by a core output port.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PortMismatch`] for out-of-range indices.
    pub fn chip_output(&mut self, core: usize, output: usize) -> Result<(), NetlistError> {
        self.check_source(PortSource::CoreOutput { core, output })?;
        self.chip_outputs.push((core, output));
        Ok(())
    }

    /// Declare a contiguous range of chip outputs from a core.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PortMismatch`] for out-of-range indices.
    pub fn chip_output_range(
        &mut self,
        core: usize,
        output_start: usize,
        width: usize,
    ) -> Result<(), NetlistError> {
        for k in 0..width {
            self.chip_output(core, output_start + k)?;
        }
        Ok(())
    }

    fn check_source(&self, source: PortSource) -> Result<(), NetlistError> {
        match source {
            PortSource::ChipInput(k) if k >= self.chip_inputs => Err(NetlistError::PortMismatch {
                message: format!("chip input {k} out of range ({} inputs)", self.chip_inputs),
            }),
            PortSource::CoreOutput { core, output } => {
                let c = self
                    .cores
                    .get(core)
                    .ok_or_else(|| NetlistError::PortMismatch {
                        message: format!("no core {core}"),
                    })?;
                if output >= c.output_count() {
                    return Err(NetlistError::PortMismatch {
                        message: format!("core {core} has no output {output}"),
                    });
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Finish building; every core input must be driven.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PortMismatch`] listing the first unwired
    /// port.
    pub fn build(self) -> Result<SocNetlist, NetlistError> {
        let mut wiring = Vec::with_capacity(self.cores.len());
        for (ci, w) in self.input_wiring.into_iter().enumerate() {
            let mut out = Vec::with_capacity(w.len());
            for (port, s) in w.into_iter().enumerate() {
                out.push(s.ok_or_else(|| NetlistError::PortMismatch {
                    message: format!("core {ci} input {port} is not driven"),
                })?);
            }
            wiring.push(out);
        }
        Ok(SocNetlist {
            name: self.name,
            cores: self.cores,
            input_wiring: wiring,
            chip_outputs: self.chip_outputs,
            chip_inputs: self.chip_inputs,
        })
    }
}

/// Build the paper's SOC1 (Figure 4): s713 + s953 + 3×s1423 lookalikes.
///
/// Wire budget exactly as in the figure: chip inputs 35→core1 (s713) and
/// 16→core2 (s953); core1's 23 outputs split 17→core3 + 6→core4; core2's
/// 23 outputs split 11→core4 + 12→core5; core3's 5 outputs →core5; chip
/// outputs are core4's 5 and core5's 5. Chip interface: I=51, O=10 —
/// matching Table 1's top-level row.
///
/// # Errors
///
/// Propagates generation errors (none for the built-in profiles).
pub fn soc1(seed: u64) -> Result<SocNetlist, NetlistError> {
    let mut b = SocNetlist::builder("SOC1", 51);
    let c1 = b.add_core(generate(&named(iscas::s713(seed ^ 0x01), "core1_s713"))?);
    let c2 = b.add_core(generate(&named(iscas::s953(seed ^ 0x02), "core2_s953"))?);
    let c3 = b.add_core(generate(&named(iscas::s1423(seed ^ 0x03), "core3_s1423"))?);
    let c4 = b.add_core(generate(&named(iscas::s1423(seed ^ 0x04), "core4_s1423"))?);
    let c5 = b.add_core(generate(&named(iscas::s1423(seed ^ 0x05), "core5_s1423"))?);
    b.wire_chip_range(c1, 0, 0, 35)?;
    b.wire_chip_range(c2, 0, 35, 16)?;
    b.wire_core_range(c3, 0, c1, 0, 17)?;
    b.wire_core_range(c4, 0, c1, 17, 6)?;
    b.wire_core_range(c4, 6, c2, 0, 11)?;
    b.wire_core_range(c5, 0, c2, 11, 12)?;
    b.wire_core_range(c5, 12, c3, 0, 5)?;
    b.chip_output_range(c4, 0, 5)?;
    b.chip_output_range(c5, 0, 5)?;
    b.build()
}

/// Build the paper's SOC2 (Figure 5): s953 + s5378 + s13207 + s15850
/// lookalikes.
///
/// Chip inputs (14) feed s15850; s15850's 87 outputs split 31→s13207 +
/// 35→s5378 + 16→s953 + 5→chip; chip outputs are s13207's 121 + s5378's
/// 49 + s953's 23 + those 5 (total 198). Chip interface: I=14, O=198 —
/// matching Table 2's top-level row.
///
/// # Errors
///
/// Propagates generation errors (none for the built-in profiles).
pub fn soc2(seed: u64) -> Result<SocNetlist, NetlistError> {
    let mut b = SocNetlist::builder("SOC2", 14);
    let c1 = b.add_core(generate(&named(iscas::s953(seed ^ 0x11), "core1_s953"))?);
    let c2 = b.add_core(generate(&named(iscas::s5378(seed ^ 0x12), "core2_s5378"))?);
    let c3 = b.add_core(generate(&named(
        iscas::s13207(seed ^ 0x13),
        "core3_s13207",
    ))?);
    let c4 = b.add_core(generate(&named(
        iscas::s15850(seed ^ 0x14),
        "core4_s15850",
    ))?);
    b.wire_chip_range(c4, 0, 0, 14)?;
    b.wire_core_range(c3, 0, c4, 0, 31)?;
    b.wire_core_range(c2, 0, c4, 31, 35)?;
    b.wire_core_range(c1, 0, c4, 66, 16)?;
    b.chip_output_range(c3, 0, 121)?;
    b.chip_output_range(c2, 0, 49)?;
    b.chip_output_range(c1, 0, 23)?;
    b.chip_output_range(c4, 82, 5)?;
    b.build()
}

fn named(mut p: CoreProfile, name: &str) -> CoreProfile {
    p.name = name.to_string();
    p
}

/// A tiny two-core SOC used by examples and tests (fast to ATPG even in
/// debug builds).
///
/// # Errors
///
/// Propagates generation errors.
pub fn mini_soc(seed: u64) -> Result<SocNetlist, NetlistError> {
    let mut a = CoreProfile::new("coreA", 8, 6, 10).with_seed(seed ^ 0xA);
    a.xor_fraction = 0.3;
    let mut bprof = CoreProfile::new("coreB", 6, 4, 6).with_seed(seed ^ 0xB);
    bprof.xor_fraction = 0.1;
    let mut b = SocNetlist::builder("MiniSOC", 8);
    let ca = b.add_core(generate(&a)?);
    let cb = b.add_core(generate(&bprof)?);
    b.wire_chip_range(ca, 0, 0, 8)?;
    b.wire_core_range(cb, 0, ca, 0, 6)?;
    b.chip_output_range(cb, 0, 4)?;
    b.chip_output_range(ca, 0, 2)?;
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soc1_interface_matches_table1() {
        let soc = soc1(1).unwrap();
        assert_eq!(soc.chip_input_count(), 51);
        assert_eq!(soc.chip_output_count(), 10);
        assert_eq!(soc.total_scan_cells(), 19 + 29 + 3 * 74);
        assert_eq!(soc.cores().len(), 5);
    }

    #[test]
    fn soc1_flattens_to_monolithic() {
        let soc = soc1(1).unwrap();
        let flat = soc.flatten().unwrap();
        assert_eq!(flat.input_count(), 51);
        assert_eq!(flat.output_count(), 10);
        assert_eq!(flat.dff_count(), 270); // Table 1: mono S = 270
        flat.validate().unwrap();
    }

    #[test]
    fn soc2_interface_matches_table2() {
        let soc = soc2(1).unwrap();
        assert_eq!(soc.chip_input_count(), 14);
        assert_eq!(soc.chip_output_count(), 198);
        let flat = soc.flatten().unwrap();
        assert_eq!(flat.dff_count(), 1474); // Table 2: mono S = 1474
        assert_eq!(flat.input_count(), 14);
        assert_eq!(flat.output_count(), 198);
    }

    #[test]
    fn mini_soc_flattens() {
        let soc = mini_soc(3).unwrap();
        let flat = soc.flatten().unwrap();
        assert_eq!(flat.input_count(), 8);
        assert_eq!(flat.output_count(), 6);
        assert_eq!(flat.dff_count(), 16);
    }

    #[test]
    fn unwired_port_rejected() {
        let mut b = SocNetlist::builder("x", 2);
        let core = generate(&CoreProfile::new("c", 3, 1, 0).with_seed(1)).unwrap();
        let ci = b.add_core(core);
        b.wire(ci, 0, PortSource::ChipInput(0)).unwrap();
        // ports 1, 2 unwired
        assert!(matches!(b.build(), Err(NetlistError::PortMismatch { .. })));
    }

    #[test]
    fn double_drive_rejected() {
        let mut b = SocNetlist::builder("x", 2);
        let core = generate(&CoreProfile::new("c", 1, 1, 0).with_seed(1)).unwrap();
        let ci = b.add_core(core);
        b.wire(ci, 0, PortSource::ChipInput(0)).unwrap();
        let err = b.wire(ci, 0, PortSource::ChipInput(1)).unwrap_err();
        assert!(matches!(err, NetlistError::PortMismatch { .. }));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = SocNetlist::builder("x", 1);
        let core = generate(&CoreProfile::new("c", 1, 1, 0).with_seed(1)).unwrap();
        let ci = b.add_core(core);
        assert!(b.wire(ci, 0, PortSource::ChipInput(5)).is_err());
        assert!(b.chip_output(ci, 9).is_err());
        assert!(b.wire(ci, 9, PortSource::ChipInput(0)).is_err());
    }

    #[test]
    fn cyclic_core_graph_rejected_at_flatten() {
        // Two cores wired head-to-tail both ways.
        let mut b = SocNetlist::builder("cyc", 0);
        let core1 = generate(&CoreProfile::new("c1", 1, 1, 0).with_seed(1)).unwrap();
        let core2 = generate(&CoreProfile::new("c2", 1, 1, 0).with_seed(2)).unwrap();
        let i1 = b.add_core(core1);
        let i2 = b.add_core(core2);
        b.wire(
            i1,
            0,
            PortSource::CoreOutput {
                core: i2,
                output: 0,
            },
        )
        .unwrap();
        b.wire(
            i2,
            0,
            PortSource::CoreOutput {
                core: i1,
                output: 0,
            },
        )
        .unwrap();
        b.chip_output(i1, 0).unwrap();
        let soc = b.build().unwrap();
        assert!(matches!(
            soc.flatten(),
            Err(NetlistError::PortMismatch { .. })
        ));
    }

    #[test]
    fn flat_netlist_gate_count_is_sum_of_cores() {
        let soc = mini_soc(1).unwrap();
        let flat = soc.flatten().unwrap();
        let sum: usize = soc.cores().iter().map(Circuit::gate_count).sum();
        assert_eq!(flat.gate_count(), sum);
    }
}
