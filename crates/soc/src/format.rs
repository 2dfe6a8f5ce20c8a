//! A `.soc`-style text format.
//!
//! The real ITC'02 benchmark files use a richer format (per-module scan
//! chains, multiple test sets, TAM hookup); this module implements the
//! subset the TDV analysis consumes, in a line-oriented form:
//!
//! ```text
//! # comment
//! soc p34392
//! core core3 i=37 o=25 b=0 s=0 t=3108
//! core core2 i=165 o=263 b=0 s=8856 t=514 children=core3
//! ```
//!
//! Children may be listed before or after their definition; the file is
//! resolved in two phases. Cores are instantiated in an order where
//! children precede parents, as [`crate::Soc::add_core`] requires.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::core::{CoreId, CoreSpec};
use crate::error::SocError;
use crate::soc::Soc;

/// Parse a `.soc`-style document.
///
/// # Errors
///
/// Returns [`SocError::ParseSoc`] with a line number for syntax problems,
/// and hierarchy errors ([`SocError::UnknownCore`],
/// [`SocError::CyclicHierarchy`], …) for structural ones.
///
/// # Example
///
/// ```
/// let soc = modsoc_soc::format::parse_soc("
/// soc demo
/// core a i=4 o=2 b=0 s=16 t=40
/// core top i=8 o=4 b=0 s=0 t=2 children=a
/// ")?;
/// assert_eq!(soc.core_count(), 2);
/// assert_eq!(soc.name(), "demo");
/// # Ok::<(), modsoc_soc::SocError>(())
/// ```
pub fn parse_soc(source: &str) -> Result<Soc, SocError> {
    struct Line {
        name: String,
        i: u64,
        o: u64,
        b: u64,
        s: u64,
        t: u64,
        children: Vec<String>,
        lineno: usize,
    }
    let mut soc_name: Option<String> = None;
    let mut lines: Vec<Line> = Vec::new();

    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let mut tokens = text.split_whitespace();
        match tokens.next() {
            Some("soc") => {
                let name = tokens.next().ok_or(SocError::ParseSoc {
                    line: lineno,
                    message: "expected a name after `soc`".into(),
                })?;
                if soc_name.is_some() {
                    return Err(SocError::ParseSoc {
                        line: lineno,
                        message: "duplicate `soc` line".into(),
                    });
                }
                soc_name = Some(name.to_string());
            }
            Some("core") => {
                let name = tokens
                    .next()
                    .ok_or(SocError::ParseSoc {
                        line: lineno,
                        message: "expected a name after `core`".into(),
                    })?
                    .to_string();
                let mut fields: HashMap<&str, &str> = HashMap::new();
                for tok in tokens {
                    let (k, v) = tok.split_once('=').ok_or_else(|| SocError::ParseSoc {
                        line: lineno,
                        message: format!("expected key=value, got `{tok}`"),
                    })?;
                    fields.insert(k, v);
                }
                let get_num = |key: &str| -> Result<u64, SocError> {
                    match fields.get(key) {
                        None => Ok(0),
                        Some(v) => v.parse().map_err(|_| SocError::ParseSoc {
                            line: lineno,
                            message: format!("field `{key}` is not a number: `{v}`"),
                        }),
                    }
                };
                let children = fields
                    .get("children")
                    .map(|v| v.split(',').map(str::to_string).collect())
                    .unwrap_or_default();
                for key in fields.keys() {
                    if !matches!(*key, "i" | "o" | "b" | "s" | "t" | "children") {
                        return Err(SocError::ParseSoc {
                            line: lineno,
                            message: format!("unknown field `{key}`"),
                        });
                    }
                }
                lines.push(Line {
                    name,
                    i: get_num("i")?,
                    o: get_num("o")?,
                    b: get_num("b")?,
                    s: get_num("s")?,
                    t: get_num("t")?,
                    children,
                    lineno,
                });
            }
            Some(other) => {
                return Err(SocError::ParseSoc {
                    line: lineno,
                    message: format!("unrecognized directive `{other}`"),
                });
            }
            None => unreachable!("empty lines filtered"),
        }
    }

    if soc_name.is_none() && lines.is_empty() {
        return Err(SocError::EmptySource);
    }

    // Order: children before parents (Kahn over the child edges).
    let index: HashMap<&str, usize> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| (l.name.as_str(), i))
        .collect();
    if index.len() != lines.len() {
        // find the dup for a good message
        let mut seen = HashMap::new();
        for l in &lines {
            if seen.insert(l.name.as_str(), l.lineno).is_some() {
                return Err(SocError::DuplicateCore {
                    name: l.name.clone(),
                });
            }
        }
    }
    let mut indegree = vec![0usize; lines.len()];
    let mut parents_of: Vec<Vec<usize>> = vec![Vec::new(); lines.len()];
    for (pi, l) in lines.iter().enumerate() {
        for ch in &l.children {
            let ci = *index.get(ch.as_str()).ok_or_else(|| SocError::ParseSoc {
                line: l.lineno,
                message: format!("child `{ch}` is never defined"),
            })?;
            parents_of[ci].push(pi);
            indegree[pi] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..lines.len()).filter(|&i| indegree[i] == 0).collect();
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &p in &parents_of[v] {
            indegree[p] -= 1;
            if indegree[p] == 0 {
                queue.push(p);
            }
        }
    }
    if queue.len() != lines.len() {
        let stuck = indegree.iter().position(|&d| d > 0).expect("cycle member");
        return Err(SocError::CyclicHierarchy {
            name: lines[stuck].name.clone(),
        });
    }

    let mut soc = Soc::new(soc_name.unwrap_or_else(|| "unnamed".to_string()));
    let mut ids: HashMap<&str, CoreId> = HashMap::new();
    for &li in &queue {
        let l = &lines[li];
        let children: Vec<CoreId> = l.children.iter().map(|ch| ids[ch.as_str()]).collect();
        let id = soc.add_core(CoreSpec::parent(
            l.name.clone(),
            l.i,
            l.o,
            l.b,
            l.s,
            l.t,
            children,
        ))?;
        ids.insert(l.name.as_str(), id);
    }
    soc.validate()?;
    Ok(soc)
}

/// Serialize a SOC to the `.soc`-style text form. Round-trips with
/// [`parse_soc`] (up to core ordering, which is normalized to
/// children-first).
#[must_use]
pub fn write_soc(soc: &Soc) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "soc {}", soc.name());
    for (_, c) in soc.iter() {
        let _ = write!(
            out,
            "core {} i={} o={} b={} s={} t={}",
            c.name, c.inputs, c.outputs, c.bidirs, c.scan_cells, c.patterns
        );
        if !c.children.is_empty() {
            let names: Vec<&str> = c
                .children
                .iter()
                .map(|id| soc.core(*id).name.as_str())
                .collect();
            let _ = write!(out, " children={}", names.join(","));
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "
# sample soc
soc demo
core top i=8 o=4 b=1 s=0 t=2 children=a,b
core a i=4 o=2 b=0 s=16 t=40
core b i=2 o=2 b=0 s=8 t=90
";

    #[test]
    fn parses_forward_children() {
        let soc = parse_soc(SAMPLE).unwrap();
        assert_eq!(soc.name(), "demo");
        assert_eq!(soc.core_count(), 3);
        let top = soc.find("top").unwrap();
        assert_eq!(soc.core(top).children.len(), 2);
        assert_eq!(soc.top_level_cores(), vec![top]);
        assert_eq!(soc.chip_pins(), Some((8, 4, 1)));
    }

    #[test]
    fn round_trip() {
        let s1 = parse_soc(SAMPLE).unwrap();
        let text = write_soc(&s1);
        let s2 = parse_soc(&text).unwrap();
        assert_eq!(s1.core_count(), s2.core_count());
        for (_, c) in s1.iter() {
            let id2 = s2.find(&c.name).expect("core preserved");
            let c2 = s2.core(id2);
            assert_eq!(
                (c.inputs, c.outputs, c.bidirs, c.scan_cells, c.patterns),
                (c2.inputs, c2.outputs, c2.bidirs, c2.scan_cells, c2.patterns)
            );
            let ch1: Vec<&str> = c
                .children
                .iter()
                .map(|i| s1.core(*i).name.as_str())
                .collect();
            let ch2: Vec<&str> = c2
                .children
                .iter()
                .map(|i| s2.core(*i).name.as_str())
                .collect();
            assert_eq!(ch1, ch2);
        }
    }

    #[test]
    fn missing_fields_default_to_zero() {
        let soc = parse_soc("soc x\ncore a t=5\n").unwrap();
        let a = soc.core(soc.find("a").unwrap());
        assert_eq!((a.inputs, a.scan_cells, a.patterns), (0, 0, 5));
    }

    #[test]
    fn bad_number_rejected() {
        let err = parse_soc("soc x\ncore a i=zz\n").unwrap_err();
        assert!(matches!(err, SocError::ParseSoc { line: 2, .. }));
    }

    #[test]
    fn unknown_field_rejected() {
        let err = parse_soc("soc x\ncore a q=1\n").unwrap_err();
        assert!(matches!(err, SocError::ParseSoc { .. }));
    }

    #[test]
    fn unknown_child_rejected() {
        let err = parse_soc("soc x\ncore a children=zz\n").unwrap_err();
        assert!(matches!(err, SocError::ParseSoc { .. }));
    }

    #[test]
    fn cyclic_children_rejected() {
        let err = parse_soc("soc x\ncore a children=b\ncore b children=a\n").unwrap_err();
        assert!(matches!(err, SocError::CyclicHierarchy { .. }));
    }

    #[test]
    fn duplicate_core_rejected() {
        let err = parse_soc("soc x\ncore a\ncore a\n").unwrap_err();
        assert!(matches!(err, SocError::DuplicateCore { .. }));
    }

    #[test]
    fn p34392_round_trips_through_text() {
        // The embedded hierarchical benchmark must survive the text
        // format with its full hierarchy and every parameter intact.
        let original = crate::itc02::p34392();
        let text = write_soc(&original);
        let back = parse_soc(&text).unwrap();
        assert_eq!(back.core_count(), 20);
        assert_eq!(back.chip_pins(), original.chip_pins());
        assert_eq!(back.total_scan_cells(), original.total_scan_cells());
        assert_eq!(back.max_core_patterns(), original.max_core_patterns());
        let top = back.find("core0").unwrap();
        assert_eq!(back.core(top).children.len(), 4);
        assert_eq!(back.top_level_cores(), vec![top]);
    }

    #[test]
    fn unknown_directive_rejected() {
        let err = parse_soc("module x\n").unwrap_err();
        assert!(matches!(err, SocError::ParseSoc { line: 1, .. }));
    }

    #[test]
    fn empty_source_rejected() {
        for src in ["", "\n", "# comment only\n\n"] {
            let err = parse_soc(src).unwrap_err();
            assert!(matches!(err, SocError::EmptySource), "{src:?}");
        }
    }

    #[test]
    fn soc_line_without_cores_is_empty() {
        // A `soc` header with no cores is structurally empty, which is a
        // different diagnostic from an entirely empty source.
        let err = parse_soc("soc lonely\n").unwrap_err();
        assert!(matches!(err, SocError::Empty));
    }
}
