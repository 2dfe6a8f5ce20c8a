//! Single-circuit tools: `atpg`, `generate`, `cones`, `index` and `tdf`.

use modsoc::analysis::report::fmt_u64;
use modsoc::atpg::{Atpg, AtpgOptions};
use modsoc::circuitgen::{generate as generate_circuit, CoreProfile};
use modsoc::metrics::NullSink;
use modsoc::netlist::bench_format::{parse_bench, write_bench};
use modsoc::netlist::cone::extract_cones;
use modsoc::netlist::verilog::{dff_module, write_verilog};
use modsoc::netlist::{Circuit, CircuitStats};
use modsoc::soc::format::parse_soc;

use crate::{read_file, write_file, Args, CliError, RunStatus};

/// Write `circuit` as Verilog to `out`, with the DFF primitive module
/// appended when the circuit has flip-flops.
fn write_verilog_file(circuit: &Circuit, out: &str) -> Result<(), String> {
    let mut v = write_verilog(circuit).map_err(|e| e.to_string())?;
    if circuit.dff_count() > 0 {
        v.push('\n');
        v.push_str(dff_module());
    }
    write_file(out, v)?;
    println!("wrote verilog to {out}");
    Ok(())
}

/// The combinational model the structural tools work on: the circuit
/// itself, or its full-scan test model when it has flip-flops.
fn test_model(circuit: Circuit) -> Result<Circuit, String> {
    if circuit.is_combinational() {
        return Ok(circuit);
    }
    Ok(circuit.to_test_model().map_err(|e| e.to_string())?.circuit)
}

pub(crate) fn atpg(a: &Args) -> Result<RunStatus, CliError> {
    let path = a.operand();
    let text = read_file(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    let circuit = parse_bench(name, &text).map_err(|e| e.to_string())?;
    println!("{}", CircuitStats::of(&circuit).map_err(|e| e.to_string())?);

    let budget = a.budget()?;
    let options = AtpgOptions {
        dynamic_compaction: a.has("--dynamic"),
        ..AtpgOptions::default()
    };
    let result = Atpg::new(options)
        .run_budgeted(&circuit, &budget)
        .map_err(|e| e.to_string())?;
    println!(
        "{} patterns, {:.2}% fault coverage ({} classes: {} detected, {} redundant, {} aborted)",
        result.pattern_count(),
        result.fault_coverage() * 100.0,
        result.stats.collapsed_faults,
        result.stats.detected,
        result.stats.redundant,
        result.stats.aborted
    );
    if let Some(out) = a.get("--patterns-out") {
        write_file(out, result.patterns.to_text())?;
        println!("wrote patterns to {out}");
    }
    if let Some(out) = a.get("--verilog-out") {
        write_verilog_file(&circuit, out)?;
    }
    if let Some(e) = &result.exhausted {
        eprintln!("warning: partial result — {e}");
        return Ok(RunStatus::Partial);
    }
    Ok(RunStatus::Complete)
}

pub(crate) fn generate(a: &Args) -> Result<RunStatus, CliError> {
    let profile = CoreProfile::new(
        "generated",
        a.required("--inputs")?,
        a.required("--outputs")?,
        a.required("--scan")?,
    )
    .with_seed(a.num_or("--seed", 1)?);
    let circuit = generate_circuit(&profile).map_err(|e| e.to_string())?;
    println!("{}", CircuitStats::of(&circuit).map_err(|e| e.to_string())?);
    if let Some(out) = a.get("--bench-out") {
        write_file(out, write_bench(&circuit))?;
        println!("wrote bench to {out}");
    }
    if let Some(out) = a.get("--verilog-out") {
        write_verilog_file(&circuit, out)?;
    }
    Ok(RunStatus::Complete)
}

pub(crate) fn cones(a: &Args) -> Result<RunStatus, CliError> {
    let circuit = parse_bench("c", &read_file(a.operand())?).map_err(|e| e.to_string())?;
    let cones = extract_cones(&test_model(circuit)?).map_err(|e| e.to_string())?;
    println!(
        "{} cones | widths: min {} max {} mean {:.1} | overlapping pairs {} | overlap fraction {:.3}",
        cones.cones().len(),
        cones.cones().iter().map(|c| c.width()).min().unwrap_or(0),
        cones.max_width(),
        cones.mean_width(),
        cones.overlapping_pairs(),
        cones.overlap_fraction()
    );
    Ok(RunStatus::Complete)
}

pub(crate) fn index(a: &Args) -> Result<RunStatus, CliError> {
    let path = a.operand();
    let text = read_file(path)?;
    if path.ends_with(".soc") {
        // SOC parameter files have no gate-level netlist to index;
        // summarize the core hierarchy instead.
        let soc = parse_soc(&text).map_err(|e| e.to_string())?;
        let leaves = soc.iter().filter(|(_, c)| c.children.is_empty()).count();
        let scan: u64 = soc.iter().map(|(_, c)| c.scan_cells).sum();
        let patterns: u64 = soc.iter().map(|(_, c)| c.patterns).sum();
        println!(
            "{} cores ({} leaves) | {} scan cells | {} total patterns | max core T {}",
            soc.core_count(),
            leaves,
            fmt_u64(scan),
            fmt_u64(patterns),
            fmt_u64(soc.max_core_patterns())
        );
        return Ok(RunStatus::Complete);
    }
    let circuit = parse_bench("c", &text).map_err(|e| e.to_string())?;
    let index = modsoc::netlist::StructuralIndex::build(&test_model(circuit)?)
        .map_err(|e| e.to_string())?;
    let n = index.node_count();
    let edges = (0..n)
        .map(|i| index.fanout_degree(modsoc::netlist::NodeId::from_index(i)))
        .sum::<usize>();
    let max_level = (0..n)
        .map(|i| index.level(modsoc::netlist::NodeId::from_index(i)))
        .max()
        .unwrap_or(0);
    let dead = (0..n)
        .filter(|&i| !index.reaches_any_output(modsoc::netlist::NodeId::from_index(i)))
        .count();
    let mean_cone = if n == 0 {
        0.0
    } else {
        (0..n)
            .map(|i| {
                index
                    .fanout_cone(modsoc::netlist::NodeId::from_index(i))
                    .len()
            })
            .sum::<usize>() as f64
            / n as f64
    };
    println!(
        "{n} nodes | {edges} fanout edges | depth {max_level} | {dead} dead nodes | mean fanout cone {mean_cone:.1}"
    );
    Ok(RunStatus::Complete)
}

pub(crate) fn tdf(a: &Args) -> Result<RunStatus, CliError> {
    let circuit = parse_bench("circuit", &read_file(a.operand())?).map_err(|e| e.to_string())?;
    let result = modsoc::atpg::tdf::run_tdf_atpg(&circuit, 400, &a.budget()?, &NullSink)
        .map_err(|e| e.to_string())?;
    println!(
        "transition faults: {} total, {} detected, {} LOC-untestable, {} aborted",
        result.total, result.detected, result.untestable, result.aborted
    );
    println!(
        "{} launch-on-capture patterns, {:.2}% coverage over LOC-testable faults",
        result.patterns.len(),
        result.coverage() * 100.0
    );
    if let Some(out) = a.get("--patterns-out") {
        write_file(out, result.patterns.to_text())?;
        println!("wrote patterns to {out}");
    }
    if let Some(e) = &result.exhausted {
        eprintln!("warning: partial result — {e}");
        return Ok(RunStatus::Partial);
    }
    Ok(RunStatus::Complete)
}
