//! The three floating-point precisions swept by the study.

use std::fmt;

/// Floating-point precision of a GEMM experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// IEEE binary64.
    Double,
    /// IEEE binary32.
    Single,
    /// IEEE binary16 (inputs; the paper stores half-input products in
    /// single in Fig. 1c).
    Half,
}

impl Precision {
    /// All precisions, double first (the paper's presentation order).
    pub const ALL: [Precision; 3] = [Precision::Double, Precision::Single, Precision::Half];

    /// Bytes per element.
    pub fn bytes(&self) -> usize {
        match self {
            Precision::Double => 8,
            Precision::Single => 4,
            Precision::Half => 2,
        }
    }

    /// The paper's label.
    pub fn label(&self) -> &'static str {
        match self {
            Precision::Double => "FP64",
            Precision::Single => "FP32",
            Precision::Half => "FP16",
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_and_labels() {
        assert_eq!(Precision::Double.bytes(), 8);
        assert_eq!(Precision::Single.bytes(), 4);
        assert_eq!(Precision::Half.bytes(), 2);
        assert_eq!(Precision::Half.to_string(), "FP16");
        assert_eq!(Precision::ALL.len(), 3);
    }
}
