//! Gate kinds and two-valued gate evaluation.

use std::fmt;

use crate::wide::PackedWord;

/// The primitive cell library.
///
/// This is the ISCAS'89 cell set: it is sufficient to express every
/// benchmark circuit the DATE 2008 paper uses, and every circuit produced by
/// the synthetic generator.
///
/// `Dff` is a full-scan D flip-flop: in the *test model* (see
/// [`crate::scan`]) its output behaves as a controllable pseudo primary
/// input and its data input as an observable pseudo primary output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Primary input (no fanin).
    Input,
    /// Buffer (one fanin).
    Buf,
    /// Inverter (one fanin).
    Not,
    /// N-ary AND (at least one fanin).
    And,
    /// N-ary NAND (at least one fanin).
    Nand,
    /// N-ary OR (at least one fanin).
    Or,
    /// N-ary NOR (at least one fanin).
    Nor,
    /// N-ary XOR (at least one fanin).
    Xor,
    /// N-ary XNOR (at least one fanin).
    Xnor,
    /// Constant logic 0 (no fanin).
    Const0,
    /// Constant logic 1 (no fanin).
    Const1,
    /// Full-scan D flip-flop (one fanin: the data input).
    Dff,
}

impl GateKind {
    /// Whether `n` fanins is a legal arity for this gate kind.
    ///
    /// ```
    /// use modsoc_netlist::GateKind;
    /// assert!(GateKind::And.arity_ok(3));
    /// assert!(!GateKind::Not.arity_ok(2));
    /// assert!(GateKind::Input.arity_ok(0));
    /// ```
    #[must_use]
    pub fn arity_ok(self, n: usize) -> bool {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => n == 0,
            GateKind::Buf | GateKind::Not | GateKind::Dff => n == 1,
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => n >= 1,
        }
    }

    /// Whether this kind is combinational logic (excludes inputs, constants
    /// and flip-flops).
    #[must_use]
    pub fn is_logic(self) -> bool {
        matches!(
            self,
            GateKind::Buf
                | GateKind::Not
                | GateKind::And
                | GateKind::Nand
                | GateKind::Or
                | GateKind::Nor
                | GateKind::Xor
                | GateKind::Xnor
        )
    }

    /// Evaluate the gate on bit-parallel two-valued fanin words.
    ///
    /// Each `u64` carries 64 independent simulation slots. `Input` and `Dff`
    /// evaluate as identity over their (externally supplied or single)
    /// fanin; constants ignore fanins.
    ///
    /// # Panics
    ///
    /// Panics if `fanin` is empty for a kind that requires fanins (callers
    /// inside this workspace always pass validated circuits).
    #[must_use]
    pub fn eval64(self, fanin: &[u64]) -> u64 {
        self.eval_packed(fanin)
    }

    /// [`GateKind::eval64`] generalized over any [`PackedWord`] width:
    /// the same fold instantiated for `u64` (64 slots) and
    /// [`crate::wide::SimBlock`] (512 slots, autovectorizable).
    ///
    /// # Panics
    ///
    /// Panics if `fanin` is empty for a kind that requires fanins (callers
    /// inside this workspace always pass validated circuits).
    #[must_use]
    pub fn eval_packed<W: PackedWord>(self, fanin: &[W]) -> W {
        match self {
            GateKind::Input => fanin.first().copied().unwrap_or(W::ZERO),
            GateKind::Const0 => W::ZERO,
            GateKind::Const1 => W::ONES,
            GateKind::Buf | GateKind::Dff => fanin[0],
            GateKind::Not => fanin[0].not(),
            GateKind::And => fanin.iter().fold(W::ONES, |acc, &v| acc.and(v)),
            GateKind::Nand => fanin.iter().fold(W::ONES, |acc, &v| acc.and(v)).not(),
            GateKind::Or => fanin.iter().fold(W::ZERO, |acc, &v| acc.or(v)),
            GateKind::Nor => fanin.iter().fold(W::ZERO, |acc, &v| acc.or(v)).not(),
            GateKind::Xor => fanin.iter().fold(W::ZERO, |acc, &v| acc.xor(v)),
            GateKind::Xnor => fanin.iter().fold(W::ZERO, |acc, &v| acc.xor(v)).not(),
        }
    }

    /// [`GateKind::eval_packed`] over a fanin *iterator*: the same fold
    /// without materializing a fanin slice. The fault-simulation kernel
    /// uses this to stream overlay values straight into the accumulator
    /// — at block width a buffered evaluation would zero-initialize and
    /// copy kilobytes per gate.
    ///
    /// Kinds that require fanins evaluate the empty iterator as their
    /// fold identity (matching `eval_packed` on an `Input` with no
    /// slice) rather than panicking.
    #[must_use]
    pub fn eval_packed_iter<W: PackedWord, I: Iterator<Item = W>>(self, mut fanin: I) -> W {
        match self {
            GateKind::Input | GateKind::Buf | GateKind::Dff => fanin.next().unwrap_or(W::ZERO),
            GateKind::Const0 => W::ZERO,
            GateKind::Const1 => W::ONES,
            GateKind::Not => fanin.next().unwrap_or(W::ZERO).not(),
            GateKind::And => fanin.fold(W::ONES, |acc, v| acc.and(v)),
            GateKind::Nand => fanin.fold(W::ONES, |acc, v| acc.and(v)).not(),
            GateKind::Or => fanin.fold(W::ZERO, |acc, v| acc.or(v)),
            GateKind::Nor => fanin.fold(W::ZERO, |acc, v| acc.or(v)).not(),
            GateKind::Xor => fanin.fold(W::ZERO, |acc, v| acc.xor(v)),
            GateKind::Xnor => fanin.fold(W::ZERO, |acc, v| acc.xor(v)).not(),
        }
    }

    /// The gate's *controlling value*, if it has one: the input value that
    /// determines the output regardless of the other inputs (0 for
    /// AND/NAND, 1 for OR/NOR). XOR-family and single-input gates have none.
    #[must_use]
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// Whether the gate inverts: the output when all inputs are at the
    /// non-controlling value (or for single-input gates, whether out = !in).
    #[must_use]
    pub fn inverts(self) -> bool {
        matches!(
            self,
            GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor
        )
    }

    /// The `.bench` keyword for this gate kind, if it has one.
    #[must_use]
    pub fn bench_keyword(self) -> Option<&'static str> {
        match self {
            GateKind::Buf => Some("BUF"),
            GateKind::Not => Some("NOT"),
            GateKind::And => Some("AND"),
            GateKind::Nand => Some("NAND"),
            GateKind::Or => Some("OR"),
            GateKind::Nor => Some("NOR"),
            GateKind::Xor => Some("XOR"),
            GateKind::Xnor => Some("XNOR"),
            GateKind::Dff => Some("DFF"),
            GateKind::Const0 => Some("CONST0"),
            GateKind::Const1 => Some("CONST1"),
            GateKind::Input => None,
        }
    }

    /// Parse a `.bench` keyword (case-insensitive) into a gate kind.
    #[must_use]
    pub fn from_bench_keyword(kw: &str) -> Option<GateKind> {
        match kw.to_ascii_uppercase().as_str() {
            "BUF" | "BUFF" => Some(GateKind::Buf),
            "NOT" | "INV" => Some(GateKind::Not),
            "AND" => Some(GateKind::And),
            "NAND" => Some(GateKind::Nand),
            "OR" => Some(GateKind::Or),
            "NOR" => Some(GateKind::Nor),
            "XOR" => Some(GateKind::Xor),
            "XNOR" => Some(GateKind::Xnor),
            "DFF" => Some(GateKind::Dff),
            "CONST0" => Some(GateKind::Const0),
            "CONST1" => Some(GateKind::Const1),
            _ => None,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Input => "INPUT",
            other => other.bench_keyword().unwrap_or("?"),
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u64 = u64::MAX;
    const F: u64 = 0;

    #[test]
    fn truth_tables_two_input() {
        for (kind, tt) in [
            (GateKind::And, [F, F, F, T]),
            (GateKind::Nand, [T, T, T, F]),
            (GateKind::Or, [F, T, T, T]),
            (GateKind::Nor, [T, F, F, F]),
            (GateKind::Xor, [F, T, T, F]),
            (GateKind::Xnor, [T, F, F, T]),
        ] {
            for (i, want) in tt.iter().enumerate() {
                let a = if i & 2 != 0 { T } else { F };
                let b = if i & 1 != 0 { T } else { F };
                assert_eq!(kind.eval64(&[a, b]), *want, "{kind} row {i}");
            }
        }
    }

    #[test]
    fn truth_tables_single_input() {
        assert_eq!(GateKind::Not.eval64(&[T]), F);
        assert_eq!(GateKind::Not.eval64(&[F]), T);
        assert_eq!(GateKind::Buf.eval64(&[T]), T);
        assert_eq!(GateKind::Dff.eval64(&[F]), F);
    }

    #[test]
    fn constants_ignore_fanin() {
        assert_eq!(GateKind::Const0.eval64(&[]), F);
        assert_eq!(GateKind::Const1.eval64(&[]), T);
    }

    #[test]
    fn bitparallel_slots_are_independent() {
        // Slot pattern: a=...0101, b=...0011 -> and=...0001
        let a = 0x5555_5555_5555_5555;
        let b = 0x3333_3333_3333_3333;
        assert_eq!(GateKind::And.eval64(&[a, b]), a & b);
        assert_eq!(GateKind::Xor.eval64(&[a, b]), a ^ b);
    }

    #[test]
    fn wide_gates() {
        assert_eq!(GateKind::And.eval64(&[T, T, T, T, F]), F);
        assert_eq!(GateKind::Or.eval64(&[F, F, F, T]), T);
        assert_eq!(GateKind::Xor.eval64(&[T, T, T]), T);
        assert_eq!(GateKind::Xnor.eval64(&[T, T, T]), F);
    }

    #[test]
    fn arity_rules() {
        assert!(GateKind::Input.arity_ok(0));
        assert!(!GateKind::Input.arity_ok(1));
        assert!(GateKind::Dff.arity_ok(1));
        assert!(!GateKind::Dff.arity_ok(0));
        assert!(GateKind::Nand.arity_ok(5));
        assert!(!GateKind::Nand.arity_ok(0));
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert!(GateKind::Nand.inverts());
        assert!(!GateKind::And.inverts());
    }

    #[test]
    fn bench_keyword_round_trip() {
        for kind in [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Dff,
        ] {
            let kw = kind.bench_keyword().expect("has keyword");
            assert_eq!(GateKind::from_bench_keyword(kw), Some(kind));
            assert_eq!(GateKind::from_bench_keyword(&kw.to_lowercase()), Some(kind));
        }
        assert_eq!(GateKind::from_bench_keyword("bogus"), None);
    }
}
