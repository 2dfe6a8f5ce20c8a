//! Chaos / fault-injection harness for the experiment pipeline.
//!
//! Feeds deliberately corrupted `.bench`/`.soc` sources and randomly
//! injected `RunBudget`s through the real parse → ATPG → analysis
//! pipeline and classifies every case: the robustness contract is that
//! each one terminates with a typed error or a (possibly partial)
//! result — never a panic, never a hang. The corruption operators model
//! what actually happens to interchange files in the wild: truncation
//! (disk/pipe), bit flips (links), editor accidents (dropped/duplicated
//! lines), absurd numbers, self-referential nets, and width mismatches.
//!
//! Everything is seed-deterministic so a failing case number reproduces
//! exactly. `PROPTEST_SEED` does not apply here: the harness has its own
//! RNG.
//!
//! This file is test code only. Two test targets include it as a module:
//! the `chaos` integration test (`tests/chaos.rs`) and the unit tests of
//! `modsoc-core` (`crates/core/src/chaos.rs`). The pipeline items it
//! drives come from the including module, which imports them under the
//! names below.

use super::{
    analyze_soc_guarded, guard, guard_result, parse_bench, parse_soc, Atpg, AtpgOptions,
    CoreFailure, NullSink, RunBudget, SocTdvAnalysis, TdvOptions, WorkerPool,
};

/// Deterministic SplitMix64 generator for the harness (self-contained so
/// the chaos behaviour never shifts under an RNG dependency change).
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// Seeded generator.
    #[must_use]
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng { state: seed }
    }

    /// Next 64 uniform bits.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// `true` with probability `percent / 100`.
    fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}

/// One corruption operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Cut the source at a random character (partial write / pipe).
    TruncateChars,
    /// Keep only a random-length line prefix.
    TruncateLines,
    /// Delete one random line.
    DeleteLine,
    /// Duplicate one random line (duplicate net / core definitions).
    DuplicateLine,
    /// Flip one bit of one byte (re-validated as UTF-8 lossily).
    FlipBit,
    /// Replace one run of digits with a near-`u64::MAX` value (absurd
    /// scan-cell / pattern counts).
    InflateNumber,
    /// Replace one run of digits with `0`.
    ZeroNumber,
    /// Drop one closing parenthesis (unterminated line).
    DropParen,
    /// Make one `x = GATE(...)` line self-referential (combinational
    /// cycle).
    SelfLoop,
    /// Insert a line of garbage tokens.
    GarbageLine,
}

/// Every operator, for sweep-style tests.
pub const ALL_CORRUPTIONS: [Corruption; 10] = [
    Corruption::TruncateChars,
    Corruption::TruncateLines,
    Corruption::DeleteLine,
    Corruption::DuplicateLine,
    Corruption::FlipBit,
    Corruption::InflateNumber,
    Corruption::ZeroNumber,
    Corruption::DropParen,
    Corruption::SelfLoop,
    Corruption::GarbageLine,
];

impl Corruption {
    /// Apply this operator to `input`.
    #[must_use]
    pub fn apply(self, input: &str, rng: &mut ChaosRng) -> String {
        match self {
            Corruption::TruncateChars => {
                let cut = rng.below(input.chars().count() + 1);
                input.chars().take(cut).collect()
            }
            Corruption::TruncateLines => {
                let lines: Vec<&str> = input.lines().collect();
                let keep = rng.below(lines.len() + 1);
                lines[..keep].join("\n")
            }
            Corruption::DeleteLine => mutate_line(input, rng, |_, _| None),
            Corruption::DuplicateLine => {
                mutate_line(input, rng, |line, _| Some(format!("{line}\n{line}")))
            }
            Corruption::FlipBit => {
                let mut bytes = input.as_bytes().to_vec();
                if !bytes.is_empty() {
                    let at = rng.below(bytes.len());
                    let bit = rng.below(8);
                    bytes[at] ^= 1 << bit;
                }
                String::from_utf8_lossy(&bytes).into_owned()
            }
            Corruption::InflateNumber => replace_digit_run(input, rng, "18446744073709551615"),
            Corruption::ZeroNumber => replace_digit_run(input, rng, "0"),
            Corruption::DropParen => {
                let parens: Vec<usize> = input
                    .char_indices()
                    .filter(|&(_, c)| c == ')')
                    .map(|(i, _)| i)
                    .collect();
                if parens.is_empty() {
                    return input.to_string();
                }
                let at = parens[rng.below(parens.len())];
                let mut out = String::with_capacity(input.len());
                out.push_str(&input[..at]);
                out.push_str(&input[at + 1..]);
                out
            }
            Corruption::SelfLoop => mutate_line(input, rng, |line, _| {
                let (lhs, rhs) = line.split_once('=')?;
                let lhs = lhs.trim();
                let open = rhs.find('(')?;
                let close = rhs.rfind(')')?;
                if close <= open || lhs.is_empty() {
                    return None;
                }
                Some(format!(
                    "{lhs} = {}({lhs}{}",
                    rhs[..open].trim(),
                    &rhs[close..]
                ))
            }),
            Corruption::GarbageLine => {
                let garbage = [
                    "%%%###",
                    "= = = (((",
                    "NAND NAND",
                    "\u{1F980} \u{FFFD}",
                    "\0\0",
                ];
                let g = garbage[rng.below(garbage.len())];
                let lines: Vec<&str> = input.lines().collect();
                let at = rng.below(lines.len() + 1);
                let mut out: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
                out.insert(at, g.to_string());
                out.join("\n")
            }
        }
    }
}

/// Replace one randomly chosen non-empty line via `f`; `None` deletes it
/// (or leaves the input unchanged for `SelfLoop`-style operators that
/// found no applicable line).
fn mutate_line(
    input: &str,
    rng: &mut ChaosRng,
    f: impl Fn(&str, &mut ChaosRng) -> Option<String>,
) -> String {
    let lines: Vec<&str> = input.lines().collect();
    if lines.is_empty() {
        return input.to_string();
    }
    let at = rng.below(lines.len());
    let mut out: Vec<String> = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        if i == at {
            match f(line, rng) {
                Some(replacement) => out.push(replacement),
                None => continue,
            }
        } else {
            out.push((*line).to_string());
        }
    }
    out.join("\n")
}

/// Replace one randomly chosen maximal digit run with `with`.
fn replace_digit_run(input: &str, rng: &mut ChaosRng, with: &str) -> String {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut start = None;
    for (i, c) in input.char_indices() {
        match (c.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                runs.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        runs.push((s, input.len()));
    }
    if runs.is_empty() {
        return input.to_string();
    }
    let (s, e) = runs[rng.below(runs.len())];
    format!("{}{}{}", &input[..s], with, &input[e..])
}

/// Corrupt `input` with 1–3 randomly chosen operators.
#[must_use]
pub fn corrupt(input: &str, rng: &mut ChaosRng) -> String {
    let ops = 1 + rng.below(3);
    let mut out = input.to_string();
    for _ in 0..ops {
        let op = ALL_CORRUPTIONS[rng.below(ALL_CORRUPTIONS.len())];
        out = op.apply(&out, rng);
    }
    out
}

/// A randomly bounded budget: every chaos ATPG run is guaranteed to
/// terminate quickly, and budget exhaustion itself is injected at random
/// points (zero timeouts, tiny backtrack pools, pre-cancellation).
#[must_use]
fn random_budget(rng: &mut ChaosRng) -> RunBudget {
    let mut budget = RunBudget::unlimited()
        .with_max_patterns(1 + rng.below(96))
        .with_max_backtracks(rng.below(64) as u64);
    if rng.chance(25) {
        budget = budget.with_timeout(std::time::Duration::from_millis(rng.below(5) as u64));
    }
    if rng.chance(10) {
        budget.cancel();
    }
    budget
}

/// Classification counters for a chaos sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Cases run.
    pub cases: usize,
    /// Pipeline completed normally.
    pub ok: usize,
    /// Pipeline returned a partial result on a tripped budget.
    pub partial: usize,
    /// Pipeline rejected the input with a typed error.
    pub typed_errors: usize,
    /// Analysis degraded gracefully: some cores failed with a typed
    /// diagnostic but healthy cores still produced rows (`.soc` sweeps).
    pub degraded: usize,
    /// Panic messages that escaped to the guard — the contract is that
    /// this stays empty.
    pub panics: Vec<String>,
}

impl ChaosReport {
    /// Whether every case honoured the no-panic contract.
    #[must_use]
    pub fn no_panics(&self) -> bool {
        self.panics.is_empty()
    }
}

/// How a single chaos case ended (the per-case unit the pool fans out).
#[derive(Debug, Clone)]
enum CaseClass {
    Ok,
    Partial,
    TypedError,
    Degraded,
    Panicked(String),
}

/// Derive the RNG for one case: each case owns an independent
/// SplitMix64 stream seeded from `(seed, case)`, so cases are mutually
/// independent and a parallel sweep classifies exactly the same inputs
/// as a serial one — determinism by construction, not by scheduling.
#[must_use]
pub fn case_rng(seed: u64, case: usize) -> ChaosRng {
    ChaosRng::new(seed ^ (case as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Fold per-case classifications (in case order) into a report.
fn collect_report(cases: Vec<CaseClass>) -> ChaosReport {
    let mut report = ChaosReport {
        cases: cases.len(),
        ..ChaosReport::default()
    };
    for class in cases {
        match class {
            CaseClass::Ok => report.ok += 1,
            CaseClass::Partial => report.partial += 1,
            CaseClass::TypedError => report.typed_errors += 1,
            CaseClass::Degraded => report.degraded += 1,
            CaseClass::Panicked(msg) => report.panics.push(msg),
        }
    }
    report
}

fn bench_chaos_case(base: &str, case: usize, seed: u64) -> CaseClass {
    let mut rng = case_rng(seed, case);
    let source = corrupt(base, &mut rng);
    let budget = random_budget(&mut rng);
    match guard(|| parse_bench("chaos", &source)) {
        Err(failure) => CaseClass::Panicked(format!("case {case} (parse): {failure}")),
        Ok(Err(err)) => {
            let _ = err.to_string(); // Display must not panic either.
            CaseClass::TypedError
        }
        Ok(Ok(circuit)) => {
            let engine = Atpg::new(AtpgOptions::default());
            match guard_result(|| engine.run_budgeted(&circuit, &budget)) {
                Ok(result) if result.exhausted.is_some() => CaseClass::Partial,
                Ok(_) => CaseClass::Ok,
                Err(CoreFailure::Panicked(msg)) => {
                    CaseClass::Panicked(format!("case {case} (atpg): {msg}"))
                }
                Err(_) => CaseClass::TypedError,
            }
        }
    }
}

fn soc_chaos_case(base: &str, case: usize, seed: u64, options: &TdvOptions) -> CaseClass {
    let mut rng = case_rng(seed, case);
    let source = corrupt(base, &mut rng);
    match guard(|| parse_soc(&source)) {
        Err(failure) => CaseClass::Panicked(format!("case {case} (parse): {failure}")),
        Ok(Err(err)) => {
            let _ = err.to_string();
            CaseClass::TypedError
        }
        Ok(Ok(soc)) => {
            match guard(|| {
                let completion = analyze_soc_guarded(&soc, options, 1, &NullSink);
                let strict = SocTdvAnalysis::compute(&soc, options);
                (completion, strict)
            }) {
                Err(failure) => CaseClass::Panicked(format!("case {case} (analysis): {failure}")),
                Ok((completion, strict)) => {
                    // The strict analysis and the guarded one build their
                    // rows alike: a failed core is a strict error, and a
                    // strict result has exactly the guarded rows.
                    let degraded = !completion.failed_cores().is_empty();
                    match strict {
                        Ok(analysis) => {
                            assert!(!degraded, "case {case}: strict Ok beside a failed core");
                            assert_eq!(analysis.rows(), &completion.result[..], "case {case}");
                        }
                        Err(err) => assert!(!err.to_string().is_empty()),
                    }
                    if degraded {
                        CaseClass::Degraded
                    } else {
                        CaseClass::Ok
                    }
                }
            }
        }
    }
}

/// Sweep `cases` corrupted variants of a valid `.bench` source through
/// parse → budgeted ATPG on `jobs` pool workers (`0` = auto). Per-case
/// RNG derivation ([`case_rng`]) makes the report identical to the
/// serial sweep at any job count.
#[must_use]
pub fn run_bench_chaos(base: &str, cases: usize, seed: u64, jobs: usize) -> ChaosReport {
    let classes =
        WorkerPool::new(jobs).map_indices(cases, |case| bench_chaos_case(base, case, seed));
    collect_report(classes)
}

/// Sweep `cases` corrupted variants of a valid `.soc` source through
/// parse → guarded per-core TDV analysis on `jobs` pool workers
/// (`0` = auto), with the same report at any job count.
#[must_use]
pub fn run_soc_chaos(base: &str, cases: usize, seed: u64, jobs: usize) -> ChaosReport {
    let options = TdvOptions::tables_1_2();
    let classes =
        WorkerPool::new(jobs).map_indices(cases, |case| soc_chaos_case(base, case, seed, &options));
    collect_report(classes)
}
