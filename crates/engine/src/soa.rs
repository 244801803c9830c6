//! Level-packed structure-of-arrays kernel programs.
//!
//! The lane walk ([`Kernel::eval_batch_reference_into`]
//! (crate::Kernel::eval_batch_reference_into)) walks the diagram one
//! lane at a time: every lane loads an instruction, reads two pattern
//! words *per lane per step*, and dispatches through a 4-way successor
//! table — a serial dependent-load chain per lane. The [`SoaProgram`]
//! here restructures the same diagram around the hardware instead:
//!
//! * **Level packing** — internal nodes are renumbered contiguously by
//!   *pair level* `p = var / 2` (the interleaved `(xⁱ, xᶠ)` pair of one
//!   macro input), so each level is one contiguous index range
//!   ([`SoaStep`]), and terminals are appended after every internal
//!   node at `term_base..`.
//! * **Mask data flow instead of walking** — evaluation runs
//!   breadth-first: each state holds a [`MaskRow`] (one 64-bit *lane
//!   mask* per pattern group: which of that group's 64 transitions
//!   reach this state). A chunk pass first combines each level's two
//!   pattern words into a dense table of *selector rows* (one per
//!   `(level, quadbits)` pair some edge actually references: the lanes
//!   whose two bits at that level match any quadrant in `quadbits`),
//!   then computes every state's row in one ascending sweep as the OR
//!   of `pred_row & selector` over its in-edges
//!   ([`SoaProgram::gather_round`]).
//! * **Gather, not scatter** — the in-edges are a compile-time
//!   schedule ([`SoaProgram::edges`]) grouped by target state, with
//!   quadrants deduplicated (a node that skips its pair's even
//!   variable feeds its two children through *two* merged edges, not
//!   four) and each level's targets bucketed by in-degree so the hot
//!   loops carry no data-dependent branch. Each state row is written
//!   exactly once per pass — there are no read-modify-write chains on
//!   shared successors to serialize against, no per-lane branches, and
//!   no terminal tests: terminal rows gather exactly like internal
//!   ones, and the final masks *are* the terminal handling.
//!   [`CHUNK_GROUPS`] groups (256 lanes) advance per pass, so every
//!   row op is a fixed-shape `[u64; 4]` chunk the autovectorizer can
//!   turn into vector ops.
//! * **Checked indexing** — the schedule stores row indices and the
//!   gather indexes its slices with ordinary bounds checks. The
//!   schedule is derived from a validated kernel
//!   ([`Kernel::load`](crate::Kernel::load) rejects malformed `.cfk`
//!   files), so a check never fails on a kernel that loaded; if one
//!   did, it would panic rather than read out of bounds.
//!
//! Total work per 256 lanes is `O(edges)` — independent of path
//! lengths, but proportional to the *whole* diagram, while the walk's
//! work per lane is one path. The gather therefore wins on small or
//! shallow kernels and loses on large ones (by 8× on exact mux's ~35k
//! instructions and over 100× on exact alu4's ~324k), so it is only
//! built for kernels the shape rule assigns to it
//! ([`BatchEngine`](crate::BatchEngine)). Because every pred's selectors
//! partition its mask, each lane ends in exactly one terminal row:
//! results are f64 bit-identical to the reference walk by construction,
//! and the kernel-equivalence suites enforce it.

use crate::block::PatternBlock;
use crate::kernel::{Instr, TERMINAL_BIT};

/// Lanes per pattern group — one bit per `u64` pattern word.
const GROUP_LANES: usize = 64;

/// Pattern groups advanced per propagation pass (4 × 64 = 256 lanes):
/// every per-state mask op becomes a fixed `[u64; 4]` chunk. Blocks
/// shorter than a full chunk leave the trailing groups inert (zero
/// live masks), so there is no scalar tail path.
const CHUNK_GROUPS: usize = 4;

/// One mask word per chunk-local group — the unit every state row and
/// selector row is made of.
type MaskRow = [u64; CHUNK_GROUPS];

/// The all-zero row.
const ZERO_ROW: MaskRow = [0u64; CHUNK_GROUPS];

/// Reusable evaluation scratch (mask rows + selector table). Holding
/// one across chunk evaluations avoids a per-call allocation and
/// re-zeroing of the mask buffer. A scratch serves one program only:
/// it keeps that program's mask rows between calls, relying on the
/// rows no round writes staying zero, which another program's rows
/// need not be.
#[derive(Debug, Default)]
pub(crate) struct EvalScratch {
    masks: Vec<MaskRow>,
    sels: Vec<MaskRow>,
}

/// One pair level: its contiguous state range `[start, end)` and the
/// two diagram variables (pattern words) it tests.
#[derive(Debug, Clone, Copy)]
struct SoaStep {
    v1: u32,
    v2: u32,
    start: u32,
    end: u32,
}

/// One gather round's slice of the degree-bucketed schedule: cursor
/// starts into [`SoaProgram::targets`] / [`SoaProgram::edges`] /
/// [`SoaProgram::gen_counts`], and how many targets sit in each degree
/// bucket (`n1` single-edge, `n2` two-edge, `ng` generic).
#[derive(Debug, Clone, Copy, Default)]
struct GatherRound {
    t0: u32,
    e0: u32,
    c0: u32,
    n1: u32,
    n2: u32,
    ng: u32,
}

/// A level-packed SoA evaluation program (see module docs). Derived
/// from the portable instruction vec at compile/load time — never
/// persisted.
#[derive(Debug, Clone, Default)]
pub(crate) struct SoaProgram {
    /// First terminal state index (== number of internal nodes).
    term_base: u32,
    /// Renumbered root state (a terminal index for constant kernels).
    root: u32,
    /// One step per non-empty pair level, ascending.
    steps: Vec<SoaStep>,
    /// Gather schedule: one round per pair level (round `r` computes
    /// step `r`'s states; round 0 is always empty — level-0 states have
    /// no in-edges) plus a final terminal round. Within a round,
    /// targets are bucketed by in-degree (1, 2, generic) so the hot
    /// loops are fixed-shape — no data-dependent inner-loop branch to
    /// mispredict on mixed degrees.
    rounds: Vec<GatherRound>,
    /// Target mask-row indices in schedule order.
    targets: Vec<u32>,
    /// In-edges in schedule order, each packed as `(sel << 32) | pred`:
    /// the selector row's index in the dense per-chunk table (see
    /// [`SoaProgram::sel_plan`]) and the pred state's mask-row index.
    edges: Vec<u64>,
    /// Per generic-bucket target (in-degree ≥ 3): its in-edge count.
    gen_counts: Vec<u32>,
    /// One entry per dense selector slot, packed `(level << 4) |
    /// quadbits` — only `(level, quadbits)` pairs some edge references
    /// get a slot, ascending by level.
    sel_plan: Vec<u32>,
    /// Total states (internal nodes + terminal rows).
    num_states: usize,
}

impl SoaProgram {
    /// Builds the SoA program from a validated instruction vec
    /// (children strictly before parents, vars in range).
    pub(crate) fn build(
        instrs: &[Instr],
        num_terminals: usize,
        root: u32,
        num_vars: u32,
    ) -> SoaProgram {
        let n = instrs.len();
        let num_states = n + num_terminals;
        let term_base = n as u32;
        // Renumber nodes contiguous by pair level (stable within one).
        let mut order: Vec<u32> = (0..term_base).collect();
        order.sort_by_key(|&i| instrs[i as usize].var >> 1);
        let mut new_of = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            new_of[old as usize] = new as u32;
        }
        let enc = |r: u32| -> u32 {
            if r & TERMINAL_BIT != 0 {
                term_base + (r & !TERMINAL_BIT)
            } else {
                new_of[r as usize]
            }
        };
        // Child reference `c` advanced through variable `v` with bit
        // `b` iff `c` actually tests `v` (old reference space).
        let hop = |c: u32, v: u32, b: usize| -> u32 {
            if c & TERMINAL_BIT == 0 {
                let child = &instrs[c as usize];
                if child.var == v {
                    return if b == 1 { child.hi } else { child.lo };
                }
            }
            c
        };
        // One step per contiguous run of equal pair levels, and each
        // state's step index (the selector-table row its out-edges
        // use). The odd word index is clamped so a malformed
        // (odd-width) kernel indexes in range; validated kernels always
        // have 2n vars.
        let mut steps: Vec<SoaStep> = Vec::new();
        let mut step_of = vec![0u32; n];
        let mut i = 0usize;
        while i < n {
            let p = instrs[order[i] as usize].var >> 1;
            let mut j = i;
            while j < n && instrs[order[j] as usize].var >> 1 == p {
                step_of[j] = steps.len() as u32;
                j += 1;
            }
            steps.push(SoaStep {
                v1: 2 * p,
                v2: (2 * p + 1).min(num_vars.saturating_sub(1)),
                start: i as u32,
                end: j as u32,
            });
            i = j;
        }
        let new_root = enc(root);
        // Per-pred grandchild targets with quadrants merged: quadrant
        // `b₁·2 + b₂` of pred `new` reaches `target`. A pred has at
        // most four distinct targets; merging turns e.g. an odd-var
        // node's four entries into two 2-quadrant edges.
        let mut pred_targets: Vec<[(u32, u32); 4]> = Vec::with_capacity(n);
        for &old in &order {
            let ins = &instrs[old as usize];
            let pair_even = ins.var & !1;
            let mut merged = [(u32::MAX, 0u32); 4]; // (target, quadbits)
            for quad in 0..4usize {
                let (b1, b2) = (quad >> 1, quad & 1);
                let grandchild = if ins.var == pair_even {
                    let c = if b1 == 1 { ins.hi } else { ins.lo };
                    hop(c, pair_even + 1, b2)
                } else {
                    // Odd node (entered by skipping the even var): b1
                    // is a don't-care.
                    if b2 == 1 {
                        ins.hi
                    } else {
                        ins.lo
                    }
                };
                let t = enc(grandchild);
                for slot in merged.iter_mut() {
                    if slot.0 == t {
                        slot.1 |= 1 << quad;
                        break;
                    }
                    if slot.0 == u32::MAX {
                        *slot = (t, 1 << quad);
                        break;
                    }
                }
            }
            pred_targets.push(merged);
        }
        // Dense selector slots: a `(level, quadbits)` pair gets one the
        // first time an edge references it. Preds are visited in
        // ascending state (= level) order, so the plan is level-sorted.
        // Edges into the root would come from unreachable nodes only;
        // dropping them keeps the root's seeded row authoritative for
        // the whole pass.
        let mut slot_of = vec![u32::MAX; 16 * steps.len()];
        let mut sel_plan: Vec<u32> = Vec::new();
        let mut in_edges: Vec<Vec<u64>> = vec![Vec::new(); num_states];
        for (new, merged) in pred_targets.iter().enumerate() {
            for &(t, quadbits) in merged.iter().filter(|s| s.0 != u32::MAX) {
                if t == new_root {
                    continue;
                }
                let key = 16 * step_of[new] as usize + quadbits as usize;
                if slot_of[key] == u32::MAX {
                    slot_of[key] = sel_plan.len() as u32;
                    sel_plan.push((step_of[new] << 4) | quadbits);
                }
                in_edges[t as usize].push(((slot_of[key] as u64) << 32) | new as u64);
            }
        }
        // Emit the degree-bucketed schedule: per round (one per level,
        // then the terminals), all in-degree-1 targets, then the
        // in-degree-2 ones, then the rest. Any order within a round is
        // sound — every pred sits at an earlier level.
        let mut rounds: Vec<GatherRound> = Vec::with_capacity(steps.len() + 1);
        let mut targets: Vec<u32> = Vec::new();
        let mut edges: Vec<u64> = Vec::new();
        let mut gen_counts: Vec<u32> = Vec::new();
        for r in 0..=steps.len() {
            let (lo, hi) = if r < steps.len() {
                (steps[r].start, steps[r].end)
            } else {
                (term_base, num_states as u32)
            };
            let mut rd = GatherRound {
                t0: targets.len() as u32,
                e0: edges.len() as u32,
                c0: gen_counts.len() as u32,
                ..GatherRound::default()
            };
            for s in lo..hi {
                if in_edges[s as usize].len() == 1 {
                    rd.n1 += 1;
                    targets.push(s);
                    edges.extend_from_slice(&in_edges[s as usize]);
                }
            }
            for s in lo..hi {
                if in_edges[s as usize].len() == 2 {
                    rd.n2 += 1;
                    targets.push(s);
                    edges.extend_from_slice(&in_edges[s as usize]);
                }
            }
            for s in lo..hi {
                if in_edges[s as usize].len() >= 3 {
                    rd.ng += 1;
                    targets.push(s);
                    gen_counts.push(in_edges[s as usize].len() as u32);
                    edges.extend_from_slice(&in_edges[s as usize]);
                }
            }
            rounds.push(rd);
        }
        SoaProgram {
            term_base,
            root: new_root,
            steps,
            rounds,
            targets,
            edges,
            gen_counts,
            sel_plan,
            num_states,
        }
    }

    /// Selector rows needed per chunk (one per referenced
    /// `(level, quadbits)` pair).
    fn num_sels(&self) -> usize {
        self.sel_plan.len()
    }

    /// Fills the dense per-chunk selector table: slot `i` holds the
    /// lanes of each group whose two pattern bits at `sel_plan[i]`'s
    /// level match any quadrant in its `quadbits` (`⋃ q[i], i ∈ qb`).
    /// The plan is level-sorted, so each level's four quadrant rows are
    /// computed once and reused across its slots. Groups past the
    /// block's end contribute zero words — their masks are zero, so
    /// selection never matters.
    fn build_sels(&self, block: &PatternBlock, g0: usize, lanes: usize, sels: &mut [MaskRow]) {
        assert_eq!(sels.len(), self.num_sels(), "selector table size");
        let mut q = [ZERO_ROW; 4];
        let mut cur_level = u32::MAX;
        for (slot, &entry) in self.sel_plan.iter().enumerate() {
            let level = entry >> 4;
            if level != cur_level {
                cur_level = level;
                let step = &self.steps[level as usize];
                let mut w1 = ZERO_ROW;
                let mut w2 = ZERO_ROW;
                for g in 0..CHUNK_GROUPS {
                    if (g0 + g) * GROUP_LANES < lanes {
                        let words = block.block_words(g0 + g);
                        w1[g] = words[step.v1 as usize];
                        w2[g] = words[step.v2 as usize];
                    }
                }
                for g in 0..CHUNK_GROUPS {
                    q[0][g] = !w1[g] & !w2[g];
                    q[1][g] = !w1[g] & w2[g];
                    q[2][g] = w1[g] & !w2[g];
                    q[3][g] = w1[g] & w2[g];
                }
            }
            let mut row = ZERO_ROW;
            let mut qb = entry & 0xF;
            while qb != 0 {
                let qi = &q[qb.trailing_zeros() as usize];
                for g in 0..CHUNK_GROUPS {
                    row[g] |= qi[g];
                }
                qb &= qb - 1;
            }
            sels[slot] = row;
        }
    }

    /// Computes the mask rows of gather round `round`'s target states
    /// (every pred is at an earlier level, so its row is already final)
    /// as the OR of `pred_row & selector` over their in-edges. Each row
    /// is written exactly once; states with no in-edges appear in no
    /// round and keep their zero row. Targets run degree-bucketed —
    /// all in-degree-1 states, then in-degree-2, then the rest — so the
    /// three loops have no data-dependent branch.
    fn gather_round(&self, masks: &mut [MaskRow], sels: &[MaskRow], round: usize) {
        let rd = self.rounds[round];
        let (n1, n2, ng) = (rd.n1 as usize, rd.n2 as usize, rd.ng as usize);
        let pred = |e: u64| (e & u64::from(u32::MAX)) as usize;
        let sel = |e: u64| (e >> 32) as usize;
        let targets = &self.targets[rd.t0 as usize..][..n1 + n2 + ng];
        let (t1, rest) = targets.split_at(n1);
        let (t2, tg) = rest.split_at(n2);
        let (e1, rest) = self.edges[rd.e0 as usize..].split_at(n1);
        let (e2, mut eg) = rest.split_at(2 * n2);
        for (&t, &e) in t1.iter().zip(e1) {
            let (p, s) = (masks[pred(e)], sels[sel(e)]);
            masks[t as usize] = std::array::from_fn(|g| p[g] & s[g]);
        }
        for (&t, pair) in t2.iter().zip(e2.chunks_exact(2)) {
            let (pa, sa) = (masks[pred(pair[0])], sels[sel(pair[0])]);
            let (pb, sb) = (masks[pred(pair[1])], sels[sel(pair[1])]);
            masks[t as usize] = std::array::from_fn(|g| (pa[g] & sa[g]) | (pb[g] & sb[g]));
        }
        let counts = &self.gen_counts[rd.c0 as usize..][..ng];
        for (&t, &c) in tg.iter().zip(counts) {
            let (edges, rest) = eg.split_at(c as usize);
            let mut acc = ZERO_ROW;
            for &e in edges {
                let (p, s) = (masks[pred(e)], sels[sel(e)]);
                for g in 0..CHUNK_GROUPS {
                    acc[g] |= p[g] & s[g];
                }
            }
            masks[t as usize] = acc;
            eg = rest;
        }
    }

    /// Scatters one whole chunk's terminal masks into `out` (that
    /// chunk's up-to-256 values, chunk-local lane `g·64 + bit`). Must
    /// run after the gather sweep: the live lanes then sit exactly in
    /// the terminal rows, and every lane `< out.len()` is set in
    /// exactly one of them. One all-zero test skips a whole terminal
    /// row — with many terminals most rows hold no lanes of a given
    /// chunk.
    #[inline]
    fn scatter(&self, masks: &[MaskRow], terminals: &[f64], out: &mut [f64]) {
        let base = self.term_base as usize;
        for (k, &value) in terminals.iter().enumerate() {
            let row = &masks[base + k];
            if row == &ZERO_ROW {
                continue;
            }
            for (g, &word) in row.iter().enumerate() {
                let mut mask = word;
                while mask != 0 {
                    out[GROUP_LANES * g + mask.trailing_zeros() as usize] = value;
                    mask &= mask - 1;
                }
            }
        }
    }

    /// Evaluates a whole packed block into `out` via the gather sweep,
    /// [`CHUNK_GROUPS`] groups per pass, in `scratch` (sized and
    /// zero-initialised here on first use).
    ///
    /// Only gather-shaped kernels get here: constant kernels are walked
    /// (the sweep assumes an internal root).
    pub(crate) fn eval_block(
        &self,
        terminals: &[f64],
        block: &PatternBlock,
        out: &mut [f64],
        scratch: &mut EvalScratch,
    ) {
        debug_assert!(self.root < self.term_base, "constant kernels are walked");
        let EvalScratch { masks, sels } = scratch;
        if masks.len() < self.num_states {
            masks.clear();
            masks.resize(self.num_states, ZERO_ROW);
        }
        if sels.len() != self.num_sels() {
            sels.clear();
            sels.resize(self.num_sels(), ZERO_ROW);
        }
        let groups = out.len().div_ceil(GROUP_LANES);
        let mut g0 = 0usize;
        while g0 < groups {
            let masks = &mut masks[..self.num_states];
            // Seed the root row with each group's live lanes (the last
            // group may be ragged; absent groups seed 0 and stay inert).
            // The root has no in-edges, so no round overwrites it.
            for (g, live) in masks[self.root as usize].iter_mut().enumerate() {
                let lo = (g0 + g) * GROUP_LANES;
                let n = out.len().saturating_sub(lo).min(GROUP_LANES);
                *live = if n == GROUP_LANES {
                    !0u64
                } else {
                    (1u64 << n) - 1
                };
            }
            self.build_sels(block, g0, out.len(), sels);
            // Round 0 gathers nothing: level-0 states have no in-edges.
            for round in 1..self.rounds.len() {
                self.gather_round(masks, sels, round);
            }
            let lo = g0 * GROUP_LANES;
            let hi = (lo + CHUNK_GROUPS * GROUP_LANES).min(out.len());
            self.scatter(masks, terminals, &mut out[lo..hi]);
            g0 += CHUNK_GROUPS;
        }
    }
}
