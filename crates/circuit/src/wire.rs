//! Wires: the values flowing between gates.

use std::fmt;

/// A wire in a threshold circuit.
///
/// A wire carries a single bit during evaluation.  It is one of
///
/// * a primary input of the circuit (`Wire::Input`),
/// * the output of a gate that was created earlier (`Wire::Gate`), or
/// * the constant-one wire (`Wire::One`), which always carries `1`.
///
/// The constant-one wire is a convenience: it lets constructions add a constant term to
/// a gate's weighted sum without special-casing the threshold, and it costs no gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Wire {
    /// The `i`-th primary input of the circuit (0-based).
    Input(u32),
    /// The output of the `i`-th gate of the circuit (0-based, in creation order).
    Gate(u32),
    /// The constant-one wire.
    One,
}

impl Wire {
    /// The `i`-th primary input.
    ///
    /// # Panics
    /// Panics if `i` does not fit in a `u32`.
    #[inline]
    pub fn input(i: usize) -> Self {
        Wire::Input(u32::try_from(i).expect("input index exceeds u32::MAX"))
    }

    /// The output of the `i`-th gate.
    ///
    /// # Panics
    /// Panics if `i` does not fit in a `u32`.
    #[inline]
    pub fn gate(i: usize) -> Self {
        Wire::Gate(u32::try_from(i).expect("gate index exceeds u32::MAX"))
    }

    /// The constant-one wire.
    #[inline]
    pub fn one() -> Self {
        Wire::One
    }

    /// Returns `true` if this wire is a primary input.
    #[inline]
    pub fn is_input(&self) -> bool {
        matches!(self, Wire::Input(_))
    }

    /// Returns `true` if this wire is a gate output.
    #[inline]
    pub fn is_gate(&self) -> bool {
        matches!(self, Wire::Gate(_))
    }

    /// Returns `true` if this wire is the constant-one wire.
    #[inline]
    pub fn is_const(&self) -> bool {
        matches!(self, Wire::One)
    }

    /// The input index if this is an input wire.
    #[inline]
    pub fn as_input(&self) -> Option<usize> {
        match self {
            Wire::Input(i) => Some(*i as usize),
            _ => None,
        }
    }

    /// The gate index if this is a gate-output wire.
    #[inline]
    pub fn as_gate(&self) -> Option<usize> {
        match self {
            Wire::Gate(i) => Some(*i as usize),
            _ => None,
        }
    }
}

impl fmt::Display for Wire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Wire::Input(i) => write!(f, "x{i}"),
            Wire::Gate(i) => write!(f, "g{i}"),
            Wire::One => write!(f, "1"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_roundtrip() {
        assert_eq!(Wire::input(3), Wire::Input(3));
        assert_eq!(Wire::gate(7), Wire::Gate(7));
        assert_eq!(Wire::one(), Wire::One);
    }

    #[test]
    fn predicates() {
        assert!(Wire::input(0).is_input());
        assert!(!Wire::input(0).is_gate());
        assert!(Wire::gate(0).is_gate());
        assert!(Wire::One.is_const());
        assert!(!Wire::gate(1).is_const());
    }

    #[test]
    fn accessors() {
        assert_eq!(Wire::input(5).as_input(), Some(5));
        assert_eq!(Wire::input(5).as_gate(), None);
        assert_eq!(Wire::gate(9).as_gate(), Some(9));
        assert_eq!(Wire::One.as_input(), None);
        assert_eq!(Wire::One.as_gate(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Wire::input(2).to_string(), "x2");
        assert_eq!(Wire::gate(4).to_string(), "g4");
        assert_eq!(Wire::One.to_string(), "1");
    }

    #[test]
    fn ordering_is_stable_within_kind() {
        assert!(Wire::Input(1) < Wire::Input(2));
        assert!(Wire::Gate(1) < Wire::Gate(2));
    }
}
