//! The five-valued D-calculus used by PODEM.
//!
//! Each value describes a line simultaneously in the good and the faulty
//! circuit: `D` means good-1/faulty-0 and `Dbar` means good-0/faulty-1, so
//! a test is found exactly when a `D`/`Dbar` reaches an output.

use modsoc_netlist::GateKind;

/// Five-valued logic value: 0, 1, X (unassigned), D (1/0), D̄ (0/1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum V5 {
    /// Logic 0 in both circuits.
    Zero,
    /// Logic 1 in both circuits.
    One,
    /// Unassigned / unknown.
    #[default]
    X,
    /// Good circuit 1, faulty circuit 0.
    D,
    /// Good circuit 0, faulty circuit 1.
    Dbar,
}

impl V5 {
    /// The value in the good circuit, if determined.
    #[must_use]
    pub fn good(self) -> Option<bool> {
        match self {
            V5::Zero | V5::Dbar => Some(false),
            V5::One | V5::D => Some(true),
            V5::X => None,
        }
    }

    /// The value in the faulty circuit, if determined.
    #[must_use]
    pub fn faulty(self) -> Option<bool> {
        match self {
            V5::Zero | V5::D => Some(false),
            V5::One | V5::Dbar => Some(true),
            V5::X => None,
        }
    }

    /// Build a five-valued value from (good, faulty) components.
    /// `None` on either side yields [`V5::X`].
    #[must_use]
    pub fn from_pair(good: Option<bool>, faulty: Option<bool>) -> V5 {
        match (good, faulty) {
            (Some(false), Some(false)) => V5::Zero,
            (Some(true), Some(true)) => V5::One,
            (Some(true), Some(false)) => V5::D,
            (Some(false), Some(true)) => V5::Dbar,
            _ => V5::X,
        }
    }

    /// Whether this value carries a fault effect (`D` or `D̄`).
    #[must_use]
    pub fn is_fault_effect(self) -> bool {
        matches!(self, V5::D | V5::Dbar)
    }

    /// Five-valued AND.
    #[must_use]
    pub fn and(self, other: V5) -> V5 {
        // Componentwise on (good, faulty), with X handled by dominance:
        // 0 AND anything = 0 even if the other side is X.
        let good = and_opt(self.good(), other.good());
        let faulty = and_opt(self.faulty(), other.faulty());
        V5::from_pair(good, faulty)
    }

    /// Five-valued OR.
    #[must_use]
    pub fn or(self, other: V5) -> V5 {
        let good = or_opt(self.good(), other.good());
        let faulty = or_opt(self.faulty(), other.faulty());
        V5::from_pair(good, faulty)
    }

    /// Five-valued XOR (any X makes the result X).
    #[must_use]
    pub fn xor(self, other: V5) -> V5 {
        let good = xor_opt(self.good(), other.good());
        let faulty = xor_opt(self.faulty(), other.faulty());
        V5::from_pair(good, faulty)
    }
}

fn and_opt(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or_opt(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

impl From<bool> for V5 {
    /// The fault-free value of a defined line: 0 or 1 in both circuits.
    fn from(v: bool) -> V5 {
        if v {
            V5::One
        } else {
            V5::Zero
        }
    }
}

impl std::ops::Not for V5 {
    type Output = V5;

    /// Logical complement: `!D = D̄` (good and faulty values both
    /// invert), `!X = X`.
    fn not(self) -> V5 {
        match self {
            V5::Zero => V5::One,
            V5::One => V5::Zero,
            V5::X => V5::X,
            V5::D => V5::Dbar,
            V5::Dbar => V5::D,
        }
    }
}

fn xor_opt(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x ^ y),
        _ => None,
    }
}

/// Evaluate a gate over five-valued fanin values, given in pin order.
///
/// `Input` and `Dff` act as identity (the caller supplies their value);
/// constants ignore fanins. The fanins are folded as they are produced,
/// so a caller can evaluate straight from its own value storage.
#[must_use]
pub fn eval_gate(kind: GateKind, fanin: impl IntoIterator<Item = V5>) -> V5 {
    let mut fanin = fanin.into_iter();
    match kind {
        GateKind::Input => fanin.next().unwrap_or(V5::X),
        GateKind::Const0 => V5::Zero,
        GateKind::Const1 => V5::One,
        GateKind::Buf | GateKind::Dff => fanin.next().expect("a buffer has one fanin"),
        GateKind::Not => !fanin.next().expect("an inverter has one fanin"),
        GateKind::And => fanin.fold(V5::One, V5::and),
        GateKind::Nand => !fanin.fold(V5::One, V5::and),
        GateKind::Or => fanin.fold(V5::Zero, V5::or),
        GateKind::Nor => !fanin.fold(V5::Zero, V5::or),
        GateKind::Xor => fanin.fold(V5::Zero, V5::xor),
        GateKind::Xnor => !fanin.fold(V5::Zero, V5::xor),
    }
}

impl std::fmt::Display for V5 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            V5::Zero => "0",
            V5::One => "1",
            V5::X => "X",
            V5::D => "D",
            V5::Dbar => "D'",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [V5; 5] = [V5::Zero, V5::One, V5::X, V5::D, V5::Dbar];

    #[test]
    fn pair_round_trip() {
        for v in ALL {
            assert_eq!(V5::from_pair(v.good(), v.faulty()), v);
        }
    }

    #[test]
    fn not_involution() {
        for v in ALL {
            assert_eq!(!!v, v);
        }
    }

    #[test]
    fn d_semantics() {
        assert_eq!(V5::D.good(), Some(true));
        assert_eq!(V5::D.faulty(), Some(false));
        assert_eq!(!V5::D, V5::Dbar);
        assert!(V5::D.is_fault_effect());
        assert!(!V5::One.is_fault_effect());
    }

    #[test]
    fn and_table_classics() {
        // Classic D-calculus identities.
        assert_eq!(V5::D.and(V5::One), V5::D);
        assert_eq!(V5::D.and(V5::Zero), V5::Zero);
        assert_eq!(V5::D.and(V5::D), V5::D);
        assert_eq!(V5::D.and(V5::Dbar), V5::Zero);
        assert_eq!(V5::D.and(V5::X), V5::X); // could be 0 or D
        assert_eq!(V5::X.and(V5::Zero), V5::Zero); // 0 dominates X
    }

    #[test]
    fn or_table_classics() {
        assert_eq!(V5::D.or(V5::Zero), V5::D);
        assert_eq!(V5::D.or(V5::One), V5::One);
        assert_eq!(V5::D.or(V5::Dbar), V5::One);
        assert_eq!(V5::X.or(V5::One), V5::One);
        assert_eq!(V5::D.or(V5::X), V5::X);
    }

    #[test]
    fn xor_classics() {
        assert_eq!(V5::D.xor(V5::D), V5::Zero);
        assert_eq!(V5::D.xor(V5::Dbar), V5::One);
        assert_eq!(V5::D.xor(V5::Zero), V5::D);
        assert_eq!(V5::D.xor(V5::One), V5::Dbar);
        assert_eq!(V5::D.xor(V5::X), V5::X);
    }

    #[test]
    fn and_or_commutative() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b), b.and(a));
                assert_eq!(a.or(b), b.or(a));
                assert_eq!(a.xor(b), b.xor(a));
            }
        }
    }

    #[test]
    fn and_or_associative_up_to_x() {
        // The five-valued calculus is associative up to information
        // precision: grouping can only change a result by weakening it to
        // X (the classic calculus cannot represent "0 or D̄", so X stands
        // in). Two definite results must always agree.
        fn consistent(a: V5, b: V5) -> bool {
            a == b || a == V5::X || b == V5::X
        }
        for a in ALL {
            for b in ALL {
                for c in ALL {
                    assert!(consistent(a.and(b).and(c), a.and(b.and(c))), "{a} {b} {c}");
                    assert!(consistent(a.or(b).or(c), a.or(b.or(c))), "{a} {b} {c}");
                }
            }
        }
    }

    #[test]
    fn de_morgan() {
        for a in ALL {
            for b in ALL {
                assert_eq!(!a.and(b), (!a).or(!b));
            }
        }
    }

    #[test]
    fn gate_eval_consistency_with_two_valued() {
        use modsoc_netlist::GateKind as GK;
        for kind in [GK::And, GK::Nand, GK::Or, GK::Nor, GK::Xor, GK::Xnor] {
            for a in [V5::Zero, V5::One] {
                for b in [V5::Zero, V5::One] {
                    let aw = if a == V5::One { u64::MAX } else { 0 };
                    let bw = if b == V5::One { u64::MAX } else { 0 };
                    let want = kind.eval64(&[aw, bw]) & 1 == 1;
                    let got = eval_gate(kind, [a, b]);
                    assert_eq!(got.good(), Some(want), "{kind} {a}{b}");
                }
            }
        }
    }

    #[test]
    fn nand_propagates_d() {
        // NAND(D, 1) = D'.
        assert_eq!(eval_gate(GateKind::Nand, [V5::D, V5::One]), V5::Dbar);
        // NAND(D, 0) = 1 (fault masked).
        assert_eq!(eval_gate(GateKind::Nand, [V5::D, V5::Zero]), V5::One);
    }

    /// Every gate kind PODEM evaluates, with each fanin count from 1 to 4
    /// (single-input kinds take exactly one).
    fn gate_shapes() -> impl Iterator<Item = (GateKind, usize)> {
        use modsoc_netlist::GateKind as GK;
        [(GK::Buf, 1), (GK::Not, 1)].into_iter().chain(
            [GK::And, GK::Nand, GK::Or, GK::Nor, GK::Xor, GK::Xnor]
                .into_iter()
                .flat_map(|kind| (1..=4).map(move |n| (kind, n))),
        )
    }

    /// Every fanin vector of length `n` over `alphabet`.
    fn vectors(alphabet: &[V5], n: usize) -> Vec<Vec<V5>> {
        (0..n).fold(vec![Vec::new()], |acc, _| {
            acc.iter()
                .flat_map(|prefix| {
                    alphabet.iter().map(move |&a| {
                        let mut v = prefix.clone();
                        v.push(a);
                        v
                    })
                })
                .collect()
        })
    }

    // PODEM's implication visits each node at most once per decision
    // because a decision only refines an input from X, and refinement
    // can turn an X result defined but never change a defined one.
    #[test]
    fn refining_an_x_fanin_never_changes_a_defined_result() {
        for (kind, n) in gate_shapes() {
            for v in vectors(&ALL, n) {
                let out = eval_gate(kind, v.iter().copied());
                if out == V5::X {
                    continue;
                }
                for pin in (0..n).filter(|&pin| v[pin] == V5::X) {
                    for r in [V5::Zero, V5::One, V5::D, V5::Dbar] {
                        let mut refined = v.clone();
                        refined[pin] = r;
                        assert_eq!(
                            eval_gate(kind, refined),
                            out,
                            "{kind} {v:?}: pin {pin} := {r}"
                        );
                    }
                }
            }
        }
    }

    // Outside a fault's cone every value is 0, 1 or X, and PODEM decides
    // a gate there from its controlling value and its X fanins alone.
    #[test]
    fn three_valued_results_follow_controlling_values_then_xs() {
        for (kind, n) in gate_shapes() {
            for v in vectors(&[V5::Zero, V5::One, V5::X], n) {
                let out = eval_gate(kind, v.iter().copied());
                let controlled = kind
                    .controlling_value()
                    .filter(|&c| v.contains(&V5::from(c)));
                match controlled {
                    Some(c) => assert_eq!(out, V5::from(c ^ kind.inverts()), "{kind} {v:?}"),
                    None if v.contains(&V5::X) => assert_eq!(out, V5::X, "{kind} {v:?}"),
                    None => assert!(matches!(out, V5::Zero | V5::One), "{kind} {v:?}"),
                }
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(V5::Dbar.to_string(), "D'");
        assert_eq!(V5::X.to_string(), "X");
    }
}
