//! Survey the ten ITC'02 benchmark SOCs (the paper's Table 4) and show
//! the correlation between pattern-count variation and the benefit of
//! modular testing.
//!
//! Run with: `cargo run --example itc02_survey`

use modsoc::analysis::reconstruct::table4_socs;
use modsoc::analysis::report::render_survey;
use modsoc::analysis::{SocTdvAnalysis, TdvOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = TdvOptions::tables_3_4();
    // p34392's per-core data is published (Table 3); the other nine are
    // reconstructed from the paper's aggregates.
    let analyses = table4_socs()?
        .iter()
        .map(|soc| SocTdvAnalysis::compute(soc, &opts))
        .collect::<Result<Vec<_>, _>>()?;
    println!("{}", render_survey(&analyses));

    // The paper's two extremes, explained by the data itself:
    let g12710 = &analyses[4];
    println!(
        "g12710: pattern counts barely vary (nstd {:.2}) and terminals outnumber scan cells,\n\
         so the wrapper penalty ({:.1}%) dwarfs the benefit ({:.1}%): modular testing LOSES here.",
        g12710.pattern_stats().normalized_stdev(),
        g12710.penalty_pct(),
        -g12710.benefit_pct(),
    );
    let a586710 = &analyses[9];
    println!(
        "a586710: one small core needs an enormous pattern count (nstd {:.2}), so monolithic\n\
         testing tops every scan cell off to that count: modular testing saves {:.1}%.",
        a586710.pattern_stats().normalized_stdev(),
        -a586710.modular_change_pct(),
    );
    Ok(())
}
