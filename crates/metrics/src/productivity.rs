//! Source-productivity measures over the paper's kernel snippets.
//!
//! The paper's §V discussion contrasts how much code each model needs to
//! express the same kernel and how invasive the parallel annotations
//! are. These measures are deliberately simple (the paper reports no
//! formal productivity metric, only qualitative discussion): non-blank
//! source lines, a whitespace/punctuation token count, and the number of
//! parallelism-specific annotations.

/// Productivity measures of one kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Productivity {
    /// Non-blank, non-comment-only source lines.
    pub lines: usize,
    /// Tokens after splitting on whitespace and punctuation.
    pub tokens: usize,
    /// Parallelism-specific annotations (pragmas, macros, decorators,
    /// thread-index intrinsics).
    pub parallel_annotations: usize,
}

/// Keywords that mark parallelism machinery across the five languages of
/// Figs. 2–3.
const PARALLEL_MARKERS: [&str; 14] = [
    "#pragma",
    "omp",
    "parallel_for",
    "KOKKOS_LAMBDA",
    "@threads",
    "@inbounds",
    "prange",
    "njit",
    "cuda.jit",
    "cuda.grid",
    "blockIdx",
    "threadIdx",
    "blockDim",
    "workitemIdx",
];

/// Measures a source snippet.
pub fn productivity(source: &str) -> Productivity {
    let mut lines = 0;
    let mut tokens = 0;
    let mut parallel_annotations = 0;

    for line in source.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        lines += 1;
        tokens += trimmed
            .split(|c: char| c.is_whitespace() || "()[]{},;:".contains(c))
            .filter(|t| !t.is_empty())
            .count();
    }
    for marker in PARALLEL_MARKERS {
        parallel_annotations += source.matches(marker).count();
    }
    Productivity {
        lines,
        tokens,
        parallel_annotations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_lines_and_tokens() {
        let p = productivity("a = b + c\n\n  x(y, z);\n");
        assert_eq!(p.lines, 2);
        assert_eq!(p.tokens, 5 + 3);
        assert_eq!(p.parallel_annotations, 0);
    }

    #[test]
    fn detects_openmp_annotations() {
        let p = productivity("#pragma omp parallel for\nfor (i = 0; i < n; ++i) {}");
        assert!(p.parallel_annotations >= 2); // #pragma + omp
    }

    #[test]
    fn detects_julia_macros() {
        let p = productivity("@threads for j in 1:n\n  @inbounds C[i,j] += 1\nend");
        assert_eq!(p.parallel_annotations, 2);
    }

    #[test]
    fn detects_cuda_intrinsics() {
        let p = productivity("int row = blockIdx.y * blockDim.y + threadIdx.y;");
        assert_eq!(p.parallel_annotations, 3);
    }

    #[test]
    fn detects_numba_decorators() {
        let p = productivity("@njit(parallel=True)\ndef gemm(A):\n  for i in prange(10): pass");
        assert!(p.parallel_annotations >= 2);
    }

    #[test]
    fn empty_source() {
        let p = productivity("");
        assert_eq!(
            p,
            Productivity {
                lines: 0,
                tokens: 0,
                parallel_annotations: 0
            }
        );
    }
}
