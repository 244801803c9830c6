//! Packed bit-matrix pattern blocks.
//!
//! A [`PatternBlock`] stores a stream of `2n`-variable transition
//! assignments column-packed: one `u64` word per diagram variable per 64
//! transitions ("lanes"). Lane `t mod 64` of word `words[(t / 64) ·
//! num_vars + var]` is the value of `var` at transition `t`. The layout
//! keeps the whole working set of one 64-transition group inside a few
//! cache lines regardless of stream length, which is what lets
//! [`Kernel::eval_batch_into`](crate::Kernel::eval_batch_into) stay
//! memory-bound-friendly.

use crate::kernel::Kernel;

/// A packed block of transition assignments (see module docs).
#[derive(Debug, Clone)]
pub struct PatternBlock {
    num_vars: usize,
    len: usize,
    words: Vec<u64>,
    /// Reused per-group accumulator of `extend_from_patterns` (one
    /// word per kernel input) — kept so the chunked worker loops'
    /// frequent small refills don't allocate.
    acc: Vec<u64>,
}

impl PatternBlock {
    /// An empty block over `num_vars` diagram variables.
    pub fn new(num_vars: usize) -> PatternBlock {
        PatternBlock {
            num_vars,
            len: 0,
            words: Vec::new(),
            acc: Vec::new(),
        }
    }

    /// Number of transitions stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no transitions are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of diagram variables per transition.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Drops all stored transitions, keeping the allocation (the chunked
    /// trace paths reuse one block per worker).
    pub fn clear(&mut self) {
        self.len = 0;
        self.words.clear();
    }

    /// The `num_vars` packed words of 64-lane group `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is past the last group.
    #[inline]
    pub(crate) fn block_words(&self, b: usize) -> &[u64] {
        &self.words[b * self.num_vars..(b + 1) * self.num_vars]
    }

    /// Appends the `(xi, xf)` transition using `kernel`'s input-to-
    /// variable maps.
    ///
    /// # Panics
    ///
    /// Panics if the block is narrower than the kernel's variable count or
    /// the patterns are not `kernel.num_inputs()` wide.
    pub fn push_transition(&mut self, kernel: &Kernel, xi: &[bool], xf: &[bool]) {
        assert!(
            self.num_vars >= kernel.num_vars() as usize,
            "block narrower than the kernel"
        );
        assert_eq!(xi.len(), kernel.num_inputs(), "pattern width mismatch");
        assert_eq!(xf.len(), kernel.num_inputs(), "pattern width mismatch");
        let lane = self.len % 64;
        if lane == 0 {
            self.words.resize(self.words.len() + self.num_vars, 0);
        }
        let base = self.words.len() - self.num_vars;
        // Branchless: the input bits are data (often random), so an `if`
        // per bit would mispredict half the time.
        for i in 0..kernel.num_inputs() {
            self.words[base + kernel.xi_vars[i] as usize] |= (xi[i] as u64) << lane;
            self.words[base + kernel.xf_vars[i] as usize] |= (xf[i] as u64) << lane;
        }
        self.len += 1;
    }

    /// Packs the `patterns.len() − 1` consecutive transitions of a pattern
    /// window (empty for fewer than two patterns).
    pub fn from_patterns(kernel: &Kernel, patterns: &[Vec<bool>]) -> PatternBlock {
        let mut block = PatternBlock::new(kernel.num_vars() as usize);
        block.extend_from_patterns(kernel, patterns);
        block
    }

    /// Appends every consecutive transition of a pattern window.
    ///
    /// From a group boundary, whole 64-transition groups skip the
    /// per-bit read-modify-writes of [`PatternBlock::push_transition`]:
    /// each input's initial-state word is accumulated four pattern rows
    /// per pass, and the final-state words are derived from it
    /// (transition `t`'s final state is transition `t + 1`'s initial
    /// state). Any remaining transitions are pushed one at a time.
    ///
    /// # Panics
    ///
    /// Panics if a pattern is narrower than `kernel.num_inputs()`.
    pub fn extend_from_patterns(&mut self, kernel: &Kernel, patterns: &[Vec<bool>]) {
        let total = patterns.len().saturating_sub(1);
        let mut t = 0usize;
        if self.len.is_multiple_of(64) && self.num_vars == kernel.num_vars() as usize {
            let n = kernel.num_inputs();
            let mut acc = std::mem::take(&mut self.acc);
            acc.resize(n, 0);
            while total - t >= 64 {
                acc.fill(0);
                let rows = &patterns[t..t + 65];
                for (q, quad) in rows[..64].chunks_exact(4).enumerate() {
                    let lane = 4 * q;
                    let (r0, r1, r2, r3) =
                        (&quad[0][..n], &quad[1][..n], &quad[2][..n], &quad[3][..n]);
                    for (i, a) in acc.iter_mut().enumerate() {
                        *a |= ((r0[i] as u64)
                            | (r1[i] as u64) << 1
                            | (r2[i] as u64) << 2
                            | (r3[i] as u64) << 3)
                            << lane;
                    }
                }
                self.pack_group(kernel, &acc, &rows[64][..n]);
                t += 64;
            }
            self.acc = acc;
        }
        while t < total {
            self.push_transition(kernel, &patterns[t], &patterns[t + 1]);
            t += 1;
        }
    }

    /// Appends one full 64-lane group from its accumulated initial-state
    /// words: the final-state word is the initial word shifted down one
    /// lane with `last` (the window's 65th pattern) filling the top bit.
    fn pack_group(&mut self, kernel: &Kernel, acc: &[u64], last: &[bool]) {
        self.words.resize(self.words.len() + self.num_vars, 0);
        let base = self.words.len() - self.num_vars;
        for (i, &wi) in acc.iter().enumerate() {
            let wf = (wi >> 1) | ((last[i] as u64) << 63);
            self.words[base + kernel.xi_vars[i] as usize] = wi;
            self.words[base + kernel.xf_vars[i] as usize] = wf;
        }
        self.len += 64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{BatchEngine, TERMINAL_BIT};
    use crate::soa::SoaProgram;
    use charfree_core::{ModelBuilder, PowerModel};
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::MarkovSource;

    #[test]
    fn packing_round_trips_through_batch_eval() {
        let library = Library::test_library();
        let model = ModelBuilder::new(&benchmarks::cm85(&library)).build();
        let kernel = Kernel::compile(&model);
        let mut source = MarkovSource::new(11, 0.5, 0.4, 3).expect("feasible");
        let patterns = source.sequence(130); // crosses two 64-lane groups
        let block = PatternBlock::from_patterns(&kernel, &patterns);
        assert_eq!(block.len(), 129);
        let got = kernel.eval_batch(&block);
        for (t, &c) in got.iter().enumerate() {
            assert_eq!(
                c.to_bits(),
                model
                    .capacitance(&patterns[t], &patterns[t + 1])
                    .femtofarads()
                    .to_bits(),
                "transition {t}"
            );
        }
    }

    #[test]
    fn clear_reuses_allocation() {
        let library = Library::test_library();
        let model = ModelBuilder::new(&benchmarks::decod(&library)).build();
        let kernel = Kernel::compile(&model);
        let mut block = PatternBlock::new(kernel.num_vars() as usize);
        let xi = vec![true; 5];
        let xf = vec![false; 5];
        block.push_transition(&kernel, &xi, &xf);
        assert_eq!(block.len(), 1);
        block.clear();
        assert!(block.is_empty());
        block.push_transition(&kernel, &xi, &xf);
        assert_eq!(
            kernel.eval_batch(&block)[0],
            kernel.eval_transition(&xi, &xf)
        );
    }

    /// A constant kernel over `n` inputs whose input-to-variable maps
    /// are a non-trivial permutation (reversed, final state first), so
    /// packing is checked for any width without building a model.
    fn permuted_kernel(n: usize) -> Kernel {
        let mut kernel = Kernel {
            name: format!("pack{n}"),
            num_vars: 2 * n as u32,
            num_inputs: n,
            instrs: Vec::new(),
            terminals: vec![0.0],
            root: TERMINAL_BIT,
            xi_vars: (0..n).map(|i| 2 * (n - 1 - i) as u32 + 1).collect(),
            xf_vars: (0..n).map(|i| 2 * (n - 1 - i) as u32).collect(),
            interleaved: false,
            program: Vec::new(),
            engine: BatchEngine::Walk,
            soa: SoaProgram::default(),
            depth: 0,
            fused_depth: 0,
        };
        kernel.rebuild_program();
        kernel.validate().expect("a valid permutation kernel");
        kernel
    }

    #[test]
    fn group_packing_matches_one_transition_at_a_time() {
        for n in [1usize, 5, 7, 8, 9, 14, 21, 33, 64, 65] {
            let kernel = permuted_kernel(n);
            for transitions in [0usize, 1, 2, 64, 65, 66, 130] {
                let mut source =
                    MarkovSource::new(n, 0.5, 0.4, 0x9AC0 + n as u64).expect("feasible");
                let patterns = source.sequence(transitions + 1);
                let mut want = PatternBlock::new(2 * n);
                for pair in patterns.windows(2) {
                    want.push_transition(&kernel, &pair[0], &pair[1]);
                }
                assert_eq!(want.len(), transitions);
                // Appends split at these transition counts: a mid-group
                // start, a return to a group boundary, and the rest.
                for cuts in [vec![], vec![3], vec![3, 64], vec![1, 65, 70]] {
                    let mut got = PatternBlock::new(2 * n);
                    let mut from = 0usize;
                    for &cut in cuts.iter().filter(|&&c| c < transitions) {
                        got.extend_from_patterns(&kernel, &patterns[from..=cut]);
                        from = cut;
                    }
                    got.extend_from_patterns(&kernel, &patterns[from..]);
                    assert_eq!(got.len(), transitions, "width {n}, cuts {cuts:?}");
                    assert_eq!(
                        got.words, want.words,
                        "width {n}, {transitions} transitions, cuts {cuts:?}"
                    );
                }
            }
        }
    }
}
