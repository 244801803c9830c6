//! Flat, manager-free compiled kernels.
//!
//! [`Kernel::compile`] flattens an [`AddPowerModel`]'s decision diagram
//! into a self-contained evaluation program: a topologically ordered
//! `Vec` of fixed-width branch instructions plus a dense terminal table.
//! The kernel owns no arena, no unique tables and no caches — it is plain
//! `Send + Sync` data, independently persistable (see
//! [`Kernel::save`](crate::Kernel::save)) and cheap to hand to worker
//! threads.
//!
//! ## Instruction layout
//!
//! ```text
//! Instr { var: u32, lo: u32, hi: u32 }       12 bytes, cache-friendly
//! ```
//!
//! Successor references use the same trick as the manager's `NodeId`: the
//! high bit selects the terminal table, the remaining 31 bits index either
//! `instrs` or `terminals`. Instructions are stored children-before-
//! parents, so every internal reference points *backwards* — evaluation
//! can never loop, and the invariant is re-checked when kernels are
//! loaded from disk.

use crate::block::PatternBlock;
use crate::soa::SoaProgram;
use charfree_core::{AddPowerModel, PowerModel};
use charfree_dd::ChainMeasure;

/// Successor-reference tag: high bit set = terminal-table index.
pub(crate) const TERMINAL_BIT: u32 = 1 << 31;

/// One flat branch instruction: test `var`, continue at `lo` on 0 and at
/// `hi` on 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Diagram variable tested by this instruction.
    pub var: u32,
    /// Successor reference on a 0 branch (terminal if high bit set).
    pub lo: u32,
    /// Successor reference on a 1 branch (terminal if high bit set).
    pub hi: u32,
}

/// A compiled, self-contained ADD evaluation kernel.
///
/// Fully decoupled from the [`charfree_dd::Manager`] arena it was compiled
/// from: the kernel can outlive the model, cross threads (`Send + Sync`),
/// and round-trip through [`Kernel::save`]/[`Kernel::load`].
///
/// # Examples
///
/// ```
/// use charfree_core::{ModelBuilder, PowerModel};
/// use charfree_engine::Kernel;
/// use charfree_netlist::benchmarks::paper_unit;
///
/// let model = ModelBuilder::new(&paper_unit()).build();
/// let kernel = Kernel::compile(&model);
/// // Fig. 2b / Example 1: C(11, 00) = 90 fF, bit-for-bit the model's answer.
/// let c = kernel.eval_transition(&[true, true], &[false, false]);
/// assert_eq!(c, model.capacitance(&[true, true], &[false, false]).femtofarads());
/// ```
#[derive(Debug, Clone)]
pub struct Kernel {
    pub(crate) name: String,
    /// Number of diagram variables (`2n`).
    pub(crate) num_vars: u32,
    /// Number of macro inputs (`n`).
    pub(crate) num_inputs: usize,
    /// Branch instructions, children strictly before parents.
    pub(crate) instrs: Vec<Instr>,
    /// Dense terminal-value table.
    pub(crate) terminals: Vec<f64>,
    /// Root reference (may point straight into the terminal table for
    /// constant models).
    pub(crate) root: u32,
    /// `xi_vars[i]` = diagram variable carrying macro input `i` at `tⁱ`
    /// (ordering and slot permutation already folded in).
    pub(crate) xi_vars: Vec<u32>,
    /// `xf_vars[i]` = diagram variable carrying macro input `i` at `tᶠ`.
    pub(crate) xf_vars: Vec<u32>,
    /// `true` when the source model used the interleaved ordering (the
    /// only ordering whose transition measure is chain-expressible).
    pub(crate) interleaved: bool,
    /// Lane-walk program derived from `instrs` (never persisted):
    /// level-fused 4-way dispatch with terminal references remapped to
    /// self-looping pseudo-instructions appended after the real ones —
    /// see [`Kernel::rebuild_program`]. The batch engine of walk-shaped
    /// kernels, and for every kernel the differential *reference
    /// interpreter* ([`Kernel::eval_batch_reference_into`]).
    pub(crate) program: Vec<FusedInstr>,
    /// Which batch engine evaluates this kernel — a fixed rule on the
    /// kernel's shape, see [`BatchEngine`].
    pub(crate) engine: BatchEngine,
    /// Level-packed SoA program (never persisted): the batch engine of
    /// gather-shaped kernels — see [`crate::soa`]. Left empty (never
    /// built) for walk-shaped ones.
    pub(crate) soa: SoaProgram,
    /// Longest root-to-terminal path in `instrs` (edges). `0` for
    /// constant kernels.
    pub(crate) depth: u32,
    /// Upper bound on fused steps from root to terminal — the batched
    /// walk's iteration bound.
    pub(crate) fused_depth: u32,
}

/// The batch engine a kernel evaluates with, chosen once per kernel
/// from its shape when its batch programs are built (compile and `.cfk`
/// load choose alike) — never from a flag or setting.
///
/// The two engines cost differently: the SoA gather does work
/// proportional to *every* edge of the diagram per 256 lanes, the lane
/// walk work proportional to one path per lane. A kernel is walked when
/// it has more than 64 instructions per level of depth
/// (`WALK_INSTRS_PER_LEVEL`); constant kernels are zero-step walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchEngine {
    /// The level-packed SoA gather: small or shallow kernels.
    Gather,
    /// The 8-lane level-fused walk: large kernels, and constant ones.
    Walk,
}

/// Lower-case name (`gather` / `walk`) for reports and JSON.
impl std::fmt::Display for BatchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BatchEngine::Gather => "gather",
            BatchEngine::Walk => "walk",
        })
    }
}

/// The shape rule's crossover: kernels with more instructions than this
/// many per level of depth are walked. Calibrated on a 2-vCPU x86-64
/// host while the gather still had an AVX2 build (kernel time alone,
/// 4096 Markov transitions at sp 0.5 / st 0.3): the gather wins up to
/// about 50 instructions per level (decod at 7: 2.3 vs 12.8 ns per
/// transition; x2 exact at 51: 17–22 vs 25–52 ns), the two tie near
/// 120 (parity, pcle), and the walk wins
/// from cm150 exact (183) on, by 8× on exact mux and 130× on exact alu4.
/// DESIGN.md §18 has the whole table.
pub(crate) const WALK_INSTRS_PER_LEVEL: usize = 64;

/// One 4-way batch-program step: test diagram variables `v1` and `v2`
/// and continue at `succ[v1_bit·2 + v2_bit]`. Successors are *program*
/// indices (no tag bit); indices at or past the terminal base are
/// self-looping terminal pseudo-instructions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedInstr {
    pub(crate) v1: u32,
    pub(crate) v2: u32,
    pub(crate) succ: [u32; 4],
}

impl Kernel {
    /// Compiles `model`'s decision diagram into a flat kernel.
    ///
    /// Only nodes reachable from the root are emitted (the manager arena
    /// may hold construction garbage); the result is typically smaller and
    /// always contiguous.
    pub fn compile(model: &AddPowerModel) -> Kernel {
        let (manager, root) = model.diagram();
        let n = model.num_inputs();
        let ordering = model.ordering();

        let nodes = manager.topological_nodes(root);
        let mut index_of = std::collections::HashMap::with_capacity(nodes.len());
        for (i, &id) in nodes.iter().enumerate() {
            index_of.insert(id, i as u32);
        }

        let mut terminals: Vec<f64> = Vec::new();
        let mut term_index: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        let encode = |id: charfree_dd::NodeId,
                      terminals: &mut Vec<f64>,
                      term_index: &mut std::collections::HashMap<u64, u32>|
         -> u32 {
            if id.is_terminal() {
                let v = manager.terminal_value(id);
                let slot = *term_index.entry(v.to_bits()).or_insert_with(|| {
                    terminals.push(v);
                    (terminals.len() - 1) as u32
                });
                slot | TERMINAL_BIT
            } else {
                index_of[&id]
            }
        };

        let mut instrs = Vec::with_capacity(nodes.len());
        for &id in &nodes {
            let (lo, hi) = manager.children(id);
            instrs.push(Instr {
                var: manager.node_var(id).index(),
                lo: encode(lo, &mut terminals, &mut term_index),
                hi: encode(hi, &mut terminals, &mut term_index),
            });
        }
        let root = encode(root, &mut terminals, &mut term_index);

        let slots = model.input_slots();
        let xi_vars = (0..n)
            .map(|i| ordering.xi_var(slots[i], n).index())
            .collect();
        let xf_vars = (0..n)
            .map(|i| ordering.xf_var(slots[i], n).index())
            .collect();

        let mut kernel = Kernel {
            name: model.name().to_owned(),
            num_vars: 2 * n as u32,
            num_inputs: n,
            instrs,
            terminals,
            root,
            xi_vars,
            xf_vars,
            interleaved: ordering == charfree_core::VariableOrdering::Interleaved,
            program: Vec::new(),
            engine: BatchEngine::Walk,
            soa: SoaProgram::default(),
            depth: 0,
            fused_depth: 0,
        };
        kernel.rebuild_program();
        kernel
    }

    /// Derives the batch programs from `instrs`/`terminals` (called after
    /// compilation and after loading from disk), and chooses the batch
    /// engine from persisted fields only, so a loaded kernel chooses
    /// like the compiled one.
    ///
    /// Two transformations make the batched walk branch-free and short:
    ///
    /// * **Terminal self-loops** — terminal references `T_k` become index
    ///   `instrs.len() + k` of a pseudo-instruction that loops on itself,
    ///   so a walk needs no per-step "is this a terminal?" test; finished
    ///   lanes idle harmlessly while the others catch up.
    /// * **Level fusion** — each step tests the node's variable *and* the
    ///   next one, dispatching 4-way straight to the grandchild (children
    ///   that skip the second variable just duplicate their entry). This
    ///   halves the serial dependent-load chain, which is what bounds a
    ///   decision-diagram walk.
    pub(crate) fn rebuild_program(&mut self) {
        let term_base = self.instrs.len() as u32;
        let remap = |r: u32| -> u32 {
            if r & TERMINAL_BIT != 0 {
                term_base + (r & !TERMINAL_BIT)
            } else {
                r
            }
        };
        // One fused step from reference `c` under the second tested
        // variable `v2` and its bit `b2`.
        let hop = |c: u32, v2: u32, b2: u32| -> u32 {
            if c & TERMINAL_BIT == 0 {
                let child = &self.instrs[c as usize];
                if child.var == v2 {
                    return remap(if b2 == 1 { child.hi } else { child.lo });
                }
            }
            remap(c)
        };
        self.program.clear();
        self.program
            .reserve(self.instrs.len() + self.terminals.len());
        for ins in &self.instrs {
            // The second tested variable; the last level re-tests itself
            // (children there are terminals, so the bit is a don't-care)
            // to keep the word index in range.
            let v2 = (ins.var + 1).min(self.num_vars - 1);
            self.program.push(FusedInstr {
                v1: ins.var,
                v2,
                succ: [
                    hop(ins.lo, v2, 0),
                    hop(ins.lo, v2, 1),
                    hop(ins.hi, v2, 0),
                    hop(ins.hi, v2, 1),
                ],
            });
        }
        for k in 0..self.terminals.len() as u32 {
            // Self-loop; variable 0 is read but ignored.
            self.program.push(FusedInstr {
                v1: 0,
                v2: 0,
                succ: [term_base + k; 4],
            });
        }
        // Longest paths (children precede parents, so one forward pass):
        // over `instrs` edges for `depth`, over fused steps for the
        // batched walk's iteration bound.
        let mut longest = vec![0u32; self.instrs.len()];
        let path = |r: u32, longest: &[u32]| -> u32 {
            if r & TERMINAL_BIT != 0 {
                0
            } else {
                longest[r as usize]
            }
        };
        for (i, ins) in self.instrs.iter().enumerate() {
            longest[i] = 1 + path(ins.lo, &longest).max(path(ins.hi, &longest));
        }
        self.depth = path(self.root, &longest);
        let mut fused = vec![0u32; self.instrs.len()];
        for i in 0..self.instrs.len() {
            let step = &self.program[i];
            let flen = |r: u32, fused: &[u32]| -> u32 {
                if r >= term_base {
                    0
                } else {
                    fused[r as usize]
                }
            };
            fused[i] = 1 + step
                .succ
                .iter()
                .map(|&s| flen(s, &fused))
                .max()
                .expect("four successors");
        }
        self.fused_depth = if self.root & TERMINAL_BIT != 0 {
            0
        } else {
            fused[self.root as usize]
        };
        self.engine =
            if self.depth == 0 || self.instrs.len() > WALK_INSTRS_PER_LEVEL * self.depth as usize {
                BatchEngine::Walk
            } else {
                BatchEngine::Gather
            };
        self.soa = match self.engine {
            BatchEngine::Gather => {
                SoaProgram::build(&self.instrs, self.terminals.len(), self.root, self.num_vars)
            }
            BatchEngine::Walk => SoaProgram::default(),
        };
    }

    /// Display name inherited from the source model.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of macro inputs `n`.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of diagram variables (`2n`).
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of branch instructions (internal diagram nodes).
    pub fn num_instrs(&self) -> usize {
        self.instrs.len()
    }

    /// Number of distinct terminal values.
    pub fn num_terminals(&self) -> usize {
        self.terminals.len()
    }

    /// Longest root-to-terminal path in instructions (`0` for constant
    /// kernels, at most `2n`). The batched walk's level-fused program
    /// takes at most `⌈depth / 2⌉`-ish steps — see
    /// [`Kernel::eval_batch_into`].
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Kernel memory footprint in bytes (instructions + terminal table +
    /// variable maps; the numbers recorded in `BENCH_engine.json`).
    pub fn bytes(&self) -> usize {
        self.instrs.len() * std::mem::size_of::<Instr>()
            + self.terminals.len() * std::mem::size_of::<f64>()
            + (self.xi_vars.len() + self.xf_vars.len()) * std::mem::size_of::<u32>()
    }

    /// `true` when the source model used the interleaved variable
    /// ordering (required by [`Kernel::expected_capacitance`]).
    pub fn is_interleaved(&self) -> bool {
        self.interleaved
    }

    /// Evaluates the kernel under a complete `2n`-variable diagram
    /// assignment (one root-to-terminal walk, no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is narrower than the highest tested
    /// variable.
    #[inline]
    pub fn eval(&self, assignment: &[bool]) -> f64 {
        let mut r = self.root;
        while r & TERMINAL_BIT == 0 {
            let i = &self.instrs[r as usize];
            r = if assignment[i.var as usize] {
                i.hi
            } else {
                i.lo
            };
        }
        self.terminals[(r & !TERMINAL_BIT) as usize]
    }

    /// Switched capacitance (fF) predicted for one `(xⁱ, xᶠ)` transition.
    ///
    /// Convenience scalar entry point; the batch paths
    /// ([`Kernel::eval_batch`]) amortize the assignment staging this has
    /// to do per call.
    ///
    /// # Panics
    ///
    /// Panics if `xi`/`xf` are not `num_inputs` wide.
    pub fn eval_transition(&self, xi: &[bool], xf: &[bool]) -> f64 {
        assert_eq!(xi.len(), self.num_inputs, "pattern width mismatch");
        assert_eq!(xf.len(), self.num_inputs, "pattern width mismatch");
        let mut buf = vec![false; self.num_vars as usize];
        self.fill_assignment(xi, xf, &mut buf);
        self.eval(&buf)
    }

    /// Writes the diagram-variable assignment for `(xi, xf)` into `buf`
    /// (which must be `2n` wide).
    #[inline]
    pub(crate) fn fill_assignment(&self, xi: &[bool], xf: &[bool], buf: &mut [bool]) {
        for i in 0..self.num_inputs {
            buf[self.xi_vars[i] as usize] = xi[i];
            buf[self.xf_vars[i] as usize] = xf[i];
        }
    }

    /// The batch engine this kernel evaluates with (read-only: a fixed
    /// rule on the kernel's shape, see [`BatchEngine`]).
    pub fn batch_engine(&self) -> BatchEngine {
        self.engine
    }

    /// Evaluates every transition lane of a packed [`PatternBlock`] into
    /// `out` (which must be exactly `block.len()` long).
    ///
    /// Runs the kernel's [`BatchEngine`]: the level-packed SoA gather
    /// (one ascending sweep computes every state's
    /// lane masks from its predecessors, 256 lanes per pass) or the lane
    /// walk of [`Kernel::eval_batch_reference_into`]. Either is f64
    /// bit-identical to the reference walk, enforced by the
    /// kernel-equivalence suites.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != block.len()` or the block is narrower than
    /// the kernel's variable count.
    pub fn eval_batch_into(&self, block: &PatternBlock, out: &mut [f64]) {
        assert_eq!(out.len(), block.len(), "output length mismatch");
        assert!(
            block.num_vars() >= self.num_vars as usize,
            "pattern block is narrower than the kernel"
        );
        self.eval_batch_into_with(block, out, &mut crate::soa::EvalScratch::default());
    }

    /// [`Kernel::eval_batch_into`] with caller-held scratch buffers —
    /// the worker loops evaluate many small blocks per trace and reuse
    /// one scratch across all of them.
    pub(crate) fn eval_batch_into_with(
        &self,
        block: &PatternBlock,
        out: &mut [f64],
        scratch: &mut crate::soa::EvalScratch,
    ) {
        assert_eq!(out.len(), block.len(), "output length mismatch");
        assert!(
            block.num_vars() >= self.num_vars as usize,
            "pattern block is narrower than the kernel"
        );
        match self.engine {
            BatchEngine::Gather => self.soa.eval_block(&self.terminals, block, out, scratch),
            BatchEngine::Walk => self.walk_into(block, out),
        }
    }

    /// Evaluates a packed [`PatternBlock`] through the level-fused lane
    /// walk (groups of eight lanes over the 4-way dispatch program). The
    /// batch engine of walk-shaped kernels, and the *differential
    /// reference* for the kernel-equivalence battery: it shares no
    /// layout with the SoA gather yet must agree with it f64 bit-exactly
    /// on every block.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != block.len()` or the block is narrower than
    /// the kernel's variable count.
    pub fn eval_batch_reference_into(&self, block: &PatternBlock, out: &mut [f64]) {
        assert_eq!(out.len(), block.len(), "output length mismatch");
        assert!(
            block.num_vars() >= self.num_vars as usize,
            "pattern block is narrower than the kernel"
        );
        self.walk_into(block, out);
    }

    /// The lane walk behind [`Kernel::eval_batch_reference_into`], for
    /// callers that checked the block and output shapes already.
    pub(crate) fn walk_into(&self, block: &PatternBlock, out: &mut [f64]) {
        if self.depth == 0 {
            // Constant kernel: the root is a terminal.
            out.fill(self.terminals[(self.root & !TERMINAL_BIT) as usize]);
            return;
        }
        const LANES: usize = 8;
        let prog = &self.program[..];
        let term_base = self.instrs.len() as u32;
        for (b, group) in out.chunks_mut(64).enumerate() {
            let words = block.block_words(b);
            let mut lane = 0usize;
            while lane + LANES <= group.len() {
                let mut r = [self.root; LANES];
                for _ in 0..self.fused_depth {
                    let mut min = u32::MAX;
                    for (k, rk) in r.iter_mut().enumerate() {
                        let f = prog[*rk as usize];
                        let b1 = words[f.v1 as usize] >> (lane + k) & 1;
                        let b2 = words[f.v2 as usize] >> (lane + k) & 1;
                        *rk = f.succ[((b1 << 1) | b2) as usize];
                        min = min.min(*rk);
                    }
                    // All lanes parked in terminal self-loops: done early
                    // (paths are often much shorter than the worst case).
                    if min >= term_base {
                        break;
                    }
                }
                for (k, rk) in r.iter().enumerate() {
                    group[lane + k] = self.terminals[(rk - term_base) as usize];
                }
                lane += LANES;
            }
            // Fused early-exit walk for the ragged tail.
            for (lane, slot) in group.iter_mut().enumerate().skip(lane) {
                let mut r = self.root;
                while r < term_base {
                    let f = prog[r as usize];
                    let b1 = words[f.v1 as usize] >> lane & 1;
                    let b2 = words[f.v2 as usize] >> lane & 1;
                    r = f.succ[((b1 << 1) | b2) as usize];
                }
                *slot = self.terminals[(r - term_base) as usize];
            }
        }
    }

    /// [`Kernel::eval_batch_into`] with an owned result vector.
    pub fn eval_batch(&self, block: &PatternBlock) -> Vec<f64> {
        let mut out = vec![0.0; block.len()];
        self.eval_batch_into(block, &mut out);
        out
    }

    /// Expected kernel value under a chain-measure input distribution —
    /// the flat-kernel counterpart of the manager's measured profile, one
    /// bottom-up pass over the instruction vector with per-context
    /// conditioning (0 = unconditioned, 1 = predecessor false, 2 =
    /// predecessor true).
    ///
    /// # Panics
    ///
    /// Panics if `measure` does not cover the kernel's `2n` variables.
    pub fn expected_value(&self, measure: &ChainMeasure) -> f64 {
        assert_eq!(
            measure.len(),
            self.num_vars as usize,
            "measure must cover every kernel variable"
        );
        // avg[i][ctx]: expected sub-value of instruction i, conditioned on
        // the value of variable (var(i) − 1) when that matters (contexts as
        // in `ChainMeasure::prob_one`). Children precede parents, so a
        // single forward pass suffices.
        let mut avg = vec![[0.0f64; 3]; self.instrs.len()];
        for idx in 0..self.instrs.len() {
            let ins = self.instrs[idx];
            let lo0 = self.resolve_expected(ins.lo, ins.var, 1, &avg, measure);
            let hi0 = self.resolve_expected(ins.hi, ins.var, 2, &avg, measure);
            for ctx in 0u8..3 {
                let p1 = measure.prob_one(ins.var as usize, ctx);
                avg[idx][ctx as usize] = (1.0 - p1) * lo0 + p1 * hi0;
            }
        }
        self.resolve_ref(self.root, None, 0, &avg, measure)
    }

    /// Expected value of a successor reached by branching at `parent_var`
    /// with the context `branch_ctx` (1 = took the 0 branch, 2 = took the
    /// 1 branch) the child would see if it tests `parent_var + 1`.
    #[inline]
    fn resolve_expected(
        &self,
        r: u32,
        parent_var: u32,
        branch_ctx: u8,
        avg: &[[f64; 3]],
        measure: &ChainMeasure,
    ) -> f64 {
        self.resolve_ref(r, Some(parent_var), branch_ctx, avg, measure)
    }

    #[inline]
    fn resolve_ref(
        &self,
        r: u32,
        parent_var: Option<u32>,
        branch_ctx: u8,
        avg: &[[f64; 3]],
        measure: &ChainMeasure,
    ) -> f64 {
        if r & TERMINAL_BIT != 0 {
            return self.terminals[(r & !TERMINAL_BIT) as usize];
        }
        let child = &self.instrs[r as usize];
        let ctx = match parent_var {
            Some(v) if child.var == v + 1 && measure.is_correlated(child.var) => branch_ctx,
            _ => 0,
        };
        avg[r as usize][ctx as usize]
    }

    /// Analytic expected switched capacitance (fF) under input statistics
    /// `(sp, st)` — the engine-side counterpart of
    /// [`AddPowerModel::expected_capacitance`], computed on the flat
    /// kernel without touching the manager arena.
    ///
    /// # Panics
    ///
    /// Panics if `sp`/`st` are infeasible or the kernel was compiled from
    /// a grouped-ordering model (whose pair correlation is not
    /// chain-expressible).
    pub fn expected_capacitance(&self, sp: f64, st: f64) -> f64 {
        assert!(
            self.interleaved,
            "analytic expectations need the interleaved ordering"
        );
        let measure = ChainMeasure::interleaved_transitions(self.num_inputs as u32, sp, st);
        self.expected_value(&measure)
    }

    /// Validates internal invariants (used after [`Kernel::load`]): every
    /// reference in range, every internal reference strictly backwards,
    /// variables below `num_vars`, input maps within bounds and disjoint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let check_ref = |r: u32, idx: usize| -> Result<(), String> {
            if r & TERMINAL_BIT != 0 {
                let t = (r & !TERMINAL_BIT) as usize;
                if t >= self.terminals.len() {
                    return Err(format!("terminal reference {t} out of range"));
                }
            } else if r as usize >= idx {
                return Err(format!(
                    "forward instruction reference {r} at instruction {idx}"
                ));
            }
            Ok(())
        };
        for (idx, ins) in self.instrs.iter().enumerate() {
            if ins.var >= self.num_vars {
                return Err(format!(
                    "instruction {idx} tests variable {} out of range",
                    ins.var
                ));
            }
            check_ref(ins.lo, idx)?;
            check_ref(ins.hi, idx)?;
            // Variables must strictly increase along every edge (the
            // ordered-diagram property the compiler guarantees). The
            // SoA gather schedule depends on it: a child at the same
            // or an earlier pair level would be gathered before its
            // pred's row is final and read stale masks — so a kernel
            // violating it is rejected at load, not mis-evaluated.
            for child in [ins.lo, ins.hi] {
                if child & TERMINAL_BIT == 0 && self.instrs[child as usize].var <= ins.var {
                    return Err(format!(
                        "instruction {idx} (variable {}) references child {child} \
                         testing variable {} — not strictly increasing",
                        ins.var, self.instrs[child as usize].var
                    ));
                }
            }
        }
        check_ref(self.root, self.instrs.len())?;
        if self.num_vars as usize != 2 * self.num_inputs {
            return Err(format!(
                "variable count {} is not twice the input count {}",
                self.num_vars, self.num_inputs
            ));
        }
        if self.xi_vars.len() != self.num_inputs || self.xf_vars.len() != self.num_inputs {
            return Err("input variable maps do not cover every input".to_owned());
        }
        let mut seen = vec![false; self.num_vars as usize];
        for &v in self.xi_vars.iter().chain(&self.xf_vars) {
            if v >= self.num_vars || std::mem::replace(&mut seen[v as usize], true) {
                return Err("input variable maps are not a permutation".to_owned());
            }
        }
        for t in &self.terminals {
            if t.is_nan() {
                return Err("NaN terminal".to_owned());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_core::{ModelBuilder, PowerModel};
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::ExhaustivePairs;

    #[test]
    fn compiled_kernel_matches_arena_exhaustively() {
        let library = Library::test_library();
        let netlist = benchmarks::decod(&library);
        let model = ModelBuilder::new(&netlist).build();
        let kernel = Kernel::compile(&model);
        assert_eq!(kernel.num_inputs(), 5);
        assert_eq!(kernel.num_vars(), 10);
        for (xi, xf) in ExhaustivePairs::new(5) {
            assert_eq!(
                kernel.eval_transition(&xi, &xf).to_bits(),
                model.capacitance(&xi, &xf).femtofarads().to_bits(),
                "xi={xi:?} xf={xf:?}"
            );
        }
    }

    #[test]
    fn constant_model_compiles_to_terminal_root() {
        let library = Library::test_library();
        let netlist = benchmarks::decod(&library);
        // Shrinking to one node forces a constant diagram.
        let model = ModelBuilder::new(&netlist)
            .build()
            .shrink(1, charfree_core::ApproxStrategy::Average);
        let kernel = Kernel::compile(&model);
        assert_eq!(kernel.num_instrs(), 0);
        assert!(kernel.root & TERMINAL_BIT != 0);
        let xi = vec![false; 5];
        let xf = vec![true; 5];
        assert_eq!(
            kernel.eval_transition(&xi, &xf),
            model.capacitance(&xi, &xf).femtofarads()
        );
    }

    #[test]
    fn kernel_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Kernel>();
    }

    #[test]
    fn expected_value_matches_model() {
        let library = Library::test_library();
        let netlist = benchmarks::cm85(&library);
        for model in [
            ModelBuilder::new(&netlist).build(),
            ModelBuilder::new(&netlist).max_nodes(200).build(),
        ] {
            let kernel = Kernel::compile(&model);
            for (sp, st) in [(0.5, 0.5), (0.5, 0.05), (0.3, 0.2), (0.8, 0.3)] {
                let want = model.expected_capacitance(sp, st).femtofarads();
                let got = kernel.expected_capacitance(sp, st);
                assert!(
                    (want - got).abs() <= 1e-9 * want.abs().max(1.0),
                    "(sp={sp}, st={st}): model {want}, kernel {got}"
                );
            }
        }
    }

    #[test]
    fn validate_accepts_compiled_kernels() {
        let library = Library::test_library();
        let model = ModelBuilder::new(&benchmarks::cm85(&library))
            .max_nodes(300)
            .build();
        Kernel::compile(&model)
            .validate()
            .expect("compiled kernels are valid");
    }
}
