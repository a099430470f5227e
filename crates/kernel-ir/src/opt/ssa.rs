//! SSA construction over the structured kernel IR, and lowering back.
//!
//! The structured body (`For`/`If` trees) is first flattened into a small
//! CFG of basic blocks whose instructions reference *original registers*.
//! Structured constructs get the classic shapes:
//!
//! ```text
//! If:   head ─→ then-entry … then-exit ─→ join
//!         └──→ else-entry … else-exit ──↗
//! For:  preheader ─→ header ─→ body-entry … latch ─→ (back to header)
//!                      └─────→ exit
//! ```
//!
//! Both arms of an `If` always get their own entry block (even when empty),
//! so the CFG has no critical edges and phi-argument copies always have a
//! dedicated predecessor block to land in. A `For` keeps the engines'
//! semantics exactly: its `(start, end, step)` operands are captured once in
//! the preheader ([`InstKind::LoopBounds`]), the loop variable is redefined
//! from the hidden counter at the top of every iteration
//! ([`InstKind::ForIndex`]), and the value the variable holds *after* the
//! loop — the pre-loop value for a zero-trip loop, the end-of-body value
//! otherwise — is exactly what the header phi for that register merges.
//!
//! Dominators are computed with the Cooper–Harvey–Kennedy iterative
//! algorithm, phis are placed at iterated dominance frontiers (the
//! `ssaconstructor` recipe), and renaming is the standard dominator-tree
//! walk with per-register stacks. A register read before any write becomes
//! an [`InstKind::Undef`] value, defined before the entry block: its
//! register is never written on any path to its reads — the engines
//! zero-initialize the register file, so this reproduces the original
//! read-of-zero exactly.
//!
//! Lowering coalesces values into congruence classes and gives each class
//! one register: a phi, its arguments and each `Insert` source (the vector
//! an in-place read-modify-write `Insert` updates) share a register unless
//! their live ranges interfere on this CFG. Only copies between classes
//! survive — phi moves at predecessor exits, with parallel-copy
//! sequentialization (a cycle among the moves is broken with a temporary),
//! and a source copy in front of an `Insert` — so a pipeline that rewrites
//! nothing lowers to the ops it was given. Finally [`compact_registers`]
//! shrinks the register file with a liveness-interval scan that mirrors
//! `Program::register_footprint`.

use crate::instr::{ArgDecl, ArgIdx, AtomicOp, BinOp, Builtin, HorizOp, Op, Operand, Reg, UnOp};
use crate::program::Program;
use crate::types::VType;
use std::collections::BTreeMap;

pub(crate) type ValId = usize;
pub(crate) type BlockId = usize;

/// An SSA operand. `Reg` only appears between CFG construction and
/// renaming; every operand afterwards is a value or an immediate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum VOp {
    Val(ValId),
    Reg(Reg),
    ImmF(f64),
    ImmI(i64),
}

impl VOp {
    pub(crate) fn as_val(&self) -> Option<ValId> {
        match self {
            VOp::Val(v) => Some(*v),
            _ => None,
        }
    }
}

/// One SSA instruction. Value-producing kinds define the instruction's id.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum InstKind {
    Bin {
        op: BinOp,
        a: VOp,
        b: VOp,
    },
    Un {
        op: UnOp,
        a: VOp,
    },
    Mad {
        a: VOp,
        b: VOp,
        c: VOp,
    },
    Select {
        cond: VOp,
        a: VOp,
        b: VOp,
    },
    Mov {
        a: VOp,
    },
    Cast {
        a: VOp,
    },
    Horiz {
        op: HorizOp,
        a: VOp,
    },
    Extract {
        a: VOp,
        lane: u8,
    },
    /// Pure functional form of the RMW `Op::Insert`: a copy of `vec` with
    /// `lane` replaced by `v`.
    Insert {
        vec: VOp,
        v: VOp,
        lane: u8,
    },
    Query {
        q: Builtin,
    },
    /// Load of a by-value scalar argument — pure, no memory event.
    ScalarArg {
        arg: ArgIdx,
    },
    Load {
        buf: ArgIdx,
        idx: VOp,
    },
    VLoad {
        buf: ArgIdx,
        base: VOp,
    },
    Store {
        buf: ArgIdx,
        idx: VOp,
        val: VOp,
    },
    VStore {
        buf: ArgIdx,
        base: VOp,
        val: VOp,
    },
    Atomic {
        op: AtomicOp,
        buf: ArgIdx,
        idx: VOp,
        val: VOp,
        has_old: bool,
    },
    Barrier,
    /// One `(predecessor block, value)` argument per predecessor.
    Phi {
        args: Vec<(BlockId, VOp)>,
    },
    /// Value of a register read before any write (reads zero, see module
    /// docs).
    Undef,
    /// The `For` counter's write into the loop variable at the top of each
    /// iteration.
    ForIndex,
    /// Anchor pinning an `If` condition value at the end of its head block.
    IfCond {
        cond: VOp,
    },
    /// Anchor pinning a `For`'s `(start, end, step)` values in the
    /// preheader — evaluated once at loop entry, exactly like the engines.
    LoopBounds {
        start: VOp,
        end: VOp,
        step: VOp,
    },
}

#[derive(Clone, Debug)]
pub(crate) struct Inst {
    pub kind: InstKind,
    /// Result type; `None` for non-value-producing instructions.
    pub ty: Option<VType>,
    pub block: BlockId,
    /// Original register defined by this instruction (construction/rename
    /// bookkeeping; phis are created per original register).
    pub orig: Option<Reg>,
}

#[derive(Clone, Debug, Default)]
pub(crate) struct Block {
    pub insts: Vec<ValId>,
    pub preds: Vec<BlockId>,
    pub succs: Vec<BlockId>,
}

/// Structured-control-flow skeleton remembered from construction, used to
/// regenerate `For`/`If` ops at lowering.
#[derive(Clone, Debug)]
pub(crate) enum Shape {
    /// Straight-line code of one basic block.
    Seq(BlockId),
    If {
        cond: ValId,
        then_s: Vec<Shape>,
        then_exit: BlockId,
        els_s: Vec<Shape>,
        els_exit: BlockId,
        join: BlockId,
    },
    For {
        bounds: ValId,
        header: BlockId,
        var: ValId,
        body_s: Vec<Shape>,
        latch: BlockId,
    },
}

/// A kernel program in SSA form.
pub(crate) struct Ssa {
    pub name: String,
    pub args: Vec<ArgDecl>,
    pub hints: crate::instr::Hints,
    pub insts: Vec<Inst>,
    pub blocks: Vec<Block>,
    pub shapes: Vec<Shape>,
    /// Reverse postorder over the CFG (entry first).
    pub rpo: Vec<BlockId>,
    /// Immediate dominator per block (entry maps to itself).
    pub idom: Vec<BlockId>,
}

impl Ssa {
    /// Copies of an instruction kind's operands, including phi arguments.
    pub fn operands(kind: &InstKind) -> Vec<VOp> {
        let mut out = Vec::new();
        Self::visit_operands(kind, &mut |o| out.push(*o));
        out
    }

    fn visit_operands(kind: &InstKind, f: &mut dyn FnMut(&VOp)) {
        match kind {
            InstKind::Bin { a, b, .. } => {
                f(a);
                f(b);
            }
            InstKind::Un { a, .. }
            | InstKind::Mov { a }
            | InstKind::Cast { a }
            | InstKind::Horiz { a, .. }
            | InstKind::Extract { a, .. } => f(a),
            InstKind::Mad { a, b, c } => {
                f(a);
                f(b);
                f(c);
            }
            InstKind::Select { cond, a, b } => {
                f(cond);
                f(a);
                f(b);
            }
            InstKind::Insert { vec, v, .. } => {
                f(vec);
                f(v);
            }
            InstKind::Load { idx, .. } => f(idx),
            InstKind::VLoad { base, .. } => f(base),
            InstKind::Store { idx, val, .. } => {
                f(idx);
                f(val);
            }
            InstKind::VStore { base, val, .. } => {
                f(base);
                f(val);
            }
            InstKind::Atomic { idx, val, .. } => {
                f(idx);
                f(val);
            }
            InstKind::Phi { args } => {
                for (_, a) in args {
                    f(a);
                }
            }
            InstKind::IfCond { cond } => f(cond),
            InstKind::LoopBounds { start, end, step } => {
                f(start);
                f(end);
                f(step);
            }
            InstKind::Query { .. }
            | InstKind::ScalarArg { .. }
            | InstKind::Barrier
            | InstKind::Undef
            | InstKind::ForIndex => {}
        }
    }

    /// Mutable references to an instruction kind's operands, including phi
    /// arguments.
    pub fn operands_mut(kind: &mut InstKind) -> Vec<&mut VOp> {
        match kind {
            InstKind::Bin { a, b, .. } => vec![a, b],
            InstKind::Un { a, .. }
            | InstKind::Mov { a }
            | InstKind::Cast { a }
            | InstKind::Horiz { a, .. }
            | InstKind::Extract { a, .. } => vec![a],
            InstKind::Mad { a, b, c } => vec![a, b, c],
            InstKind::Select { cond, a, b } => vec![cond, a, b],
            InstKind::Insert { vec, v, .. } => vec![vec, v],
            InstKind::Load { idx, .. } => vec![idx],
            InstKind::VLoad { base, .. } => vec![base],
            InstKind::Store { idx, val, .. } => vec![idx, val],
            InstKind::VStore { base, val, .. } => vec![base, val],
            InstKind::Atomic { idx, val, .. } => vec![idx, val],
            InstKind::Phi { args } => args.iter_mut().map(|(_, a)| a).collect(),
            InstKind::IfCond { cond } => vec![cond],
            InstKind::LoopBounds { start, end, step } => vec![start, end, step],
            InstKind::Query { .. }
            | InstKind::ScalarArg { .. }
            | InstKind::Barrier
            | InstKind::Undef
            | InstKind::ForIndex => vec![],
        }
    }

    /// Whether `kind` has an observable effect (memory write, barrier) or
    /// is structural machinery the lowering needs — the roots dead-code
    /// elimination must keep.
    pub fn is_root(kind: &InstKind) -> bool {
        matches!(
            kind,
            InstKind::Store { .. }
                | InstKind::VStore { .. }
                | InstKind::Atomic { .. }
                | InstKind::Barrier
                | InstKind::IfCond { .. }
                | InstKind::LoopBounds { .. }
                | InstKind::ForIndex
        )
    }

    /// Dominator-tree children per block, in block-id order.
    pub fn dom_children(&self) -> Vec<Vec<BlockId>> {
        let mut ch = vec![Vec::new(); self.blocks.len()];
        for b in 1..self.blocks.len() {
            ch[self.idom[b]].push(b);
        }
        ch
    }

    /// Build SSA form for `p` (which must validate).
    pub fn build(p: &Program) -> Ssa {
        let mut cx = BuildCtx {
            prog: p,
            insts: Vec::new(),
            blocks: vec![Block::default()],
            cur: 0,
            defs: BTreeMap::new(),
        };
        let mut shapes = Vec::new();
        cx.level(&p.body, &mut shapes);
        shapes.push(Shape::Seq(cx.cur));

        let rpo = reverse_postorder(&cx.blocks);
        let idom = idoms(&cx.blocks, &rpo);
        let df = dominance_frontiers(&cx.blocks, &idom);

        let mut ssa = Ssa {
            name: p.name.clone(),
            args: p.args.clone(),
            hints: p.hints,
            insts: cx.insts,
            blocks: cx.blocks,
            shapes,
            rpo,
            idom,
        };
        ssa.place_phis(p, &cx.defs, &df);
        ssa.rename(&cx.defs, &p.regs);
        ssa
    }

    /// Insert phis for every multiply-defined register at the iterated
    /// dominance frontier of its definition blocks.
    fn place_phis(&mut self, p: &Program, defs: &BTreeMap<Reg, Vec<BlockId>>, df: &[Vec<BlockId>]) {
        for (&reg, def_blocks) in defs {
            let mut has_phi = vec![false; self.blocks.len()];
            let mut in_work = vec![false; self.blocks.len()];
            let mut work: Vec<BlockId> = Vec::new();
            for &b in def_blocks {
                if !in_work[b] {
                    in_work[b] = true;
                    work.push(b);
                }
            }
            while let Some(b) = work.pop() {
                for &d in &df[b] {
                    if !has_phi[d] {
                        has_phi[d] = true;
                        let v = self.insts.len();
                        self.insts.push(Inst {
                            kind: InstKind::Phi { args: Vec::new() },
                            ty: Some(p.reg_ty(reg)),
                            block: d,
                            orig: Some(reg),
                        });
                        self.blocks[d].insts.insert(0, v);
                        if !in_work[d] {
                            in_work[d] = true;
                            work.push(d);
                        }
                    }
                }
            }
        }
    }

    /// Dominator-tree renaming with per-register value stacks.
    fn rename(&mut self, defs: &BTreeMap<Reg, Vec<BlockId>>, reg_tys: &[VType]) {
        let children = self.dom_children();
        let mut stacks: BTreeMap<Reg, Vec<ValId>> = BTreeMap::new();
        for &r in defs.keys() {
            stacks.insert(r, Vec::new());
        }
        let mut undefs: BTreeMap<Reg, ValId> = BTreeMap::new();
        self.rename_block(0, &children, reg_tys, &mut stacks, &mut undefs);
        #[cfg(debug_assertions)]
        for inst in &self.insts {
            for o in Self::operands(&inst.kind) {
                debug_assert!(
                    !matches!(o, VOp::Reg(_)),
                    "unrenamed register operand in {:?}",
                    inst.kind
                );
            }
        }
    }

    fn lookup(
        &mut self,
        r: Reg,
        ty: VType,
        stacks: &BTreeMap<Reg, Vec<ValId>>,
        undefs: &mut BTreeMap<Reg, ValId>,
    ) -> ValId {
        if let Some(&v) = stacks.get(&r).and_then(|s| s.last()) {
            return v;
        }
        *undefs.entry(r).or_insert_with(|| {
            let v = self.insts.len();
            self.insts.push(Inst {
                kind: InstKind::Undef,
                ty: Some(ty),
                block: 0,
                orig: None,
            });
            self.blocks[0].insts.push(v);
            v
        })
    }

    fn rename_block(
        &mut self,
        b: BlockId,
        children: &[Vec<BlockId>],
        reg_tys: &[VType],
        stacks: &mut BTreeMap<Reg, Vec<ValId>>,
        undefs: &mut BTreeMap<Reg, ValId>,
    ) {
        let mut pushed: Vec<Reg> = Vec::new();
        for i in 0..self.blocks[b].insts.len() {
            let v = self.blocks[b].insts[i];
            if matches!(self.insts[v].kind, InstKind::Phi { .. }) {
                let r = self.insts[v].orig.expect("phi has a register");
                stacks.entry(r).or_default().push(v);
                pushed.push(r);
                continue;
            }
            let mut kind = std::mem::replace(&mut self.insts[v].kind, InstKind::Barrier);
            for o in Self::operands_mut(&mut kind) {
                if let VOp::Reg(r) = *o {
                    let val = self.lookup(r, reg_tys[r.0 as usize], stacks, undefs);
                    *o = VOp::Val(val);
                }
            }
            self.insts[v].kind = kind;
            if let Some(r) = self.insts[v].orig {
                stacks.entry(r).or_default().push(v);
                pushed.push(r);
            }
        }
        for si in 0..self.blocks[b].succs.len() {
            let s = self.blocks[b].succs[si];
            for i in 0..self.blocks[s].insts.len() {
                let v = self.blocks[s].insts[i];
                let (r, ty) = match (&self.insts[v].kind, self.insts[v].orig, self.insts[v].ty) {
                    (InstKind::Phi { .. }, Some(r), Some(ty)) => (r, ty),
                    (InstKind::Phi { .. }, _, _) => unreachable!("phi without reg/ty"),
                    _ => break,
                };
                let val = self.lookup(r, ty, stacks, undefs);
                if let InstKind::Phi { args } = &mut self.insts[v].kind {
                    args.push((b, VOp::Val(val)));
                }
            }
        }
        for &c in &children[b] {
            self.rename_block(c, children, reg_tys, stacks, undefs);
        }
        for r in pushed.into_iter().rev() {
            stacks.get_mut(&r).expect("stack exists").pop();
        }
    }
}

/// Reverse postorder over `blocks` from the entry (block 0).
fn reverse_postorder(blocks: &[Block]) -> Vec<BlockId> {
    let mut seen = vec![false; blocks.len()];
    let mut post = Vec::with_capacity(blocks.len());
    // Iterative DFS with an explicit successor cursor.
    let mut stack: Vec<(BlockId, usize)> = vec![(0, 0)];
    seen[0] = true;
    while let Some(&(b, next)) = stack.last() {
        if next < blocks[b].succs.len() {
            stack.last_mut().expect("nonempty").1 += 1;
            let s = blocks[b].succs[next];
            if !seen[s] {
                seen[s] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Cooper–Harvey–Kennedy iterative immediate dominators.
fn idoms(blocks: &[Block], rpo: &[BlockId]) -> Vec<BlockId> {
    let nb = blocks.len();
    let mut rpo_num = vec![usize::MAX; nb];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_num[b] = i;
    }
    let mut idom = vec![usize::MAX; nb];
    idom[0] = 0;
    let intersect = |idom: &[usize], rpo_num: &[usize], mut a: usize, mut b: usize| {
        while a != b {
            while rpo_num[a] > rpo_num[b] {
                a = idom[a];
            }
            while rpo_num[b] > rpo_num[a] {
                b = idom[b];
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom = usize::MAX;
            for &p in &blocks[b].preds {
                if idom[p] == usize::MAX {
                    continue;
                }
                new_idom = if new_idom == usize::MAX {
                    p
                } else {
                    intersect(&idom, &rpo_num, p, new_idom)
                };
            }
            debug_assert!(new_idom != usize::MAX, "unreachable block {b}");
            if idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

/// Cooper's dominance-frontier computation.
fn dominance_frontiers(blocks: &[Block], idom: &[BlockId]) -> Vec<Vec<BlockId>> {
    let mut df = vec![Vec::new(); blocks.len()];
    for (b, blk) in blocks.iter().enumerate() {
        if blk.preds.len() < 2 {
            continue;
        }
        for &p in &blk.preds {
            let mut runner = p;
            while runner != idom[b] {
                if !df[runner].contains(&b) {
                    df[runner].push(b);
                }
                runner = idom[runner];
            }
        }
    }
    df
}

struct BuildCtx<'p> {
    prog: &'p Program,
    insts: Vec<Inst>,
    blocks: Vec<Block>,
    cur: BlockId,
    defs: BTreeMap<Reg, Vec<BlockId>>,
}

impl BuildCtx<'_> {
    fn vop(o: &Operand) -> VOp {
        match o {
            Operand::Reg(r) => VOp::Reg(*r),
            Operand::ImmF(x) => VOp::ImmF(*x),
            Operand::ImmI(x) => VOp::ImmI(*x),
        }
    }

    fn push(&mut self, kind: InstKind, ty: Option<VType>, orig: Option<Reg>) -> ValId {
        let v = self.insts.len();
        self.insts.push(Inst {
            kind,
            ty,
            block: self.cur,
            orig,
        });
        self.blocks[self.cur].insts.push(v);
        if let Some(r) = orig {
            self.defs.entry(r).or_default().push(self.cur);
        }
        v
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, a: BlockId, b: BlockId) {
        self.blocks[a].succs.push(b);
        self.blocks[b].preds.push(a);
    }

    fn level(&mut self, ops: &[Op], shapes: &mut Vec<Shape>) {
        for op in ops {
            match op {
                Op::If { cond, then, els } => {
                    let cond_v = self.push(
                        InstKind::IfCond {
                            cond: Self::vop(cond),
                        },
                        None,
                        None,
                    );
                    let head = self.cur;
                    shapes.push(Shape::Seq(head));
                    let then_entry = self.new_block();
                    self.edge(head, then_entry);
                    self.cur = then_entry;
                    let mut then_s = Vec::new();
                    self.level(then, &mut then_s);
                    then_s.push(Shape::Seq(self.cur));
                    let then_exit = self.cur;
                    let els_entry = self.new_block();
                    self.edge(head, els_entry);
                    self.cur = els_entry;
                    let mut els_s = Vec::new();
                    self.level(els, &mut els_s);
                    els_s.push(Shape::Seq(self.cur));
                    let els_exit = self.cur;
                    let join = self.new_block();
                    self.edge(then_exit, join);
                    self.edge(els_exit, join);
                    self.cur = join;
                    shapes.push(Shape::If {
                        cond: cond_v,
                        then_s,
                        then_exit,
                        els_s,
                        els_exit,
                        join,
                    });
                }
                Op::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    let bounds = self.push(
                        InstKind::LoopBounds {
                            start: Self::vop(start),
                            end: Self::vop(end),
                            step: Self::vop(step),
                        },
                        None,
                        None,
                    );
                    let pre = self.cur;
                    shapes.push(Shape::Seq(pre));
                    let header = self.new_block();
                    self.edge(pre, header);
                    let body_entry = self.new_block();
                    self.edge(header, body_entry);
                    self.cur = body_entry;
                    let var_v =
                        self.push(InstKind::ForIndex, Some(self.prog.reg_ty(*var)), Some(*var));
                    let mut body_s = Vec::new();
                    self.level(body, &mut body_s);
                    body_s.push(Shape::Seq(self.cur));
                    let latch = self.cur;
                    self.edge(latch, header);
                    let exit = self.new_block();
                    self.edge(header, exit);
                    self.cur = exit;
                    shapes.push(Shape::For {
                        bounds,
                        header,
                        var: var_v,
                        body_s,
                        latch,
                    });
                }
                simple => self.lift(simple, shapes),
            }
        }
    }

    fn lift(&mut self, op: &Op, _shapes: &mut [Shape]) {
        let ty = |cx: &Self, r: &Reg| Some(cx.prog.reg_ty(*r));
        match op {
            Op::Bin { dst, op, a, b } => {
                self.push(
                    InstKind::Bin {
                        op: *op,
                        a: Self::vop(a),
                        b: Self::vop(b),
                    },
                    ty(self, dst),
                    Some(*dst),
                );
            }
            Op::Un { dst, op, a } => {
                self.push(
                    InstKind::Un {
                        op: *op,
                        a: Self::vop(a),
                    },
                    ty(self, dst),
                    Some(*dst),
                );
            }
            Op::Mad { dst, a, b, c } => {
                self.push(
                    InstKind::Mad {
                        a: Self::vop(a),
                        b: Self::vop(b),
                        c: Self::vop(c),
                    },
                    ty(self, dst),
                    Some(*dst),
                );
            }
            Op::Select { dst, cond, a, b } => {
                self.push(
                    InstKind::Select {
                        cond: Self::vop(cond),
                        a: Self::vop(a),
                        b: Self::vop(b),
                    },
                    ty(self, dst),
                    Some(*dst),
                );
            }
            Op::Mov { dst, a } => {
                self.push(InstKind::Mov { a: Self::vop(a) }, ty(self, dst), Some(*dst));
            }
            Op::Cast { dst, a } => {
                self.push(
                    InstKind::Cast { a: Self::vop(a) },
                    ty(self, dst),
                    Some(*dst),
                );
            }
            Op::Horiz { dst, op, a } => {
                self.push(
                    InstKind::Horiz {
                        op: *op,
                        a: Self::vop(a),
                    },
                    ty(self, dst),
                    Some(*dst),
                );
            }
            Op::Extract { dst, a, lane } => {
                self.push(
                    InstKind::Extract {
                        a: Self::vop(a),
                        lane: *lane,
                    },
                    ty(self, dst),
                    Some(*dst),
                );
            }
            Op::Insert { dst, v, lane } => {
                self.push(
                    InstKind::Insert {
                        vec: VOp::Reg(*dst),
                        v: Self::vop(v),
                        lane: *lane,
                    },
                    ty(self, dst),
                    Some(*dst),
                );
            }
            Op::Query { dst, q } => {
                self.push(InstKind::Query { q: *q }, ty(self, dst), Some(*dst));
            }
            Op::Load { dst, buf, idx } => {
                if matches!(
                    self.prog.args.get(buf.0 as usize),
                    Some(ArgDecl::Scalar { .. })
                ) {
                    self.push(InstKind::ScalarArg { arg: *buf }, ty(self, dst), Some(*dst));
                } else {
                    self.push(
                        InstKind::Load {
                            buf: *buf,
                            idx: Self::vop(idx),
                        },
                        ty(self, dst),
                        Some(*dst),
                    );
                }
            }
            Op::VLoad { dst, buf, base } => {
                self.push(
                    InstKind::VLoad {
                        buf: *buf,
                        base: Self::vop(base),
                    },
                    ty(self, dst),
                    Some(*dst),
                );
            }
            Op::Store { buf, idx, val } => {
                self.push(
                    InstKind::Store {
                        buf: *buf,
                        idx: Self::vop(idx),
                        val: Self::vop(val),
                    },
                    None,
                    None,
                );
            }
            Op::VStore { buf, base, val } => {
                self.push(
                    InstKind::VStore {
                        buf: *buf,
                        base: Self::vop(base),
                        val: Self::vop(val),
                    },
                    None,
                    None,
                );
            }
            Op::Atomic {
                op,
                buf,
                idx,
                val,
                old,
            } => {
                self.push(
                    InstKind::Atomic {
                        op: *op,
                        buf: *buf,
                        idx: Self::vop(idx),
                        val: Self::vop(val),
                        has_old: old.is_some(),
                    },
                    old.map(|o| self.prog.reg_ty(o)),
                    *old,
                );
            }
            Op::Barrier => {
                self.push(InstKind::Barrier, None, None);
            }
            Op::For { .. } | Op::If { .. } => unreachable!("handled in level()"),
        }
    }
}

// ---------------------------------------------------------------------------
// Rendering (the `kernel-ir::display` SSA form)
// ---------------------------------------------------------------------------

fn vop_text(o: &VOp) -> String {
    match o {
        VOp::Val(v) => format!("v{v}"),
        VOp::Reg(r) => format!("r{}", r.0),
        VOp::ImmF(x) => format!("{x:?}"),
        VOp::ImmI(x) => format!("{x}"),
    }
}

fn ty_text(ty: VType) -> String {
    if ty.width == 1 {
        ty.elem.name().to_string()
    } else {
        format!("{}{}", ty.elem.name(), ty.width)
    }
}

impl Ssa {
    fn inst_text(&self, v: ValId) -> String {
        let head = match self.insts[v].ty {
            Some(ty) => format!("v{v}:{} = ", ty_text(ty)),
            None => String::new(),
        };
        let body = match &self.insts[v].kind {
            InstKind::Bin { op, a, b } => {
                format!("{op:?} {}, {}", vop_text(a), vop_text(b))
            }
            InstKind::Un { op, a } => format!("{op:?} {}", vop_text(a)),
            InstKind::Mad { a, b, c } => {
                format!("mad {}, {}, {}", vop_text(a), vop_text(b), vop_text(c))
            }
            InstKind::Select { cond, a, b } => format!(
                "select {}, {}, {}",
                vop_text(cond),
                vop_text(a),
                vop_text(b)
            ),
            InstKind::Mov { a } => format!("mov {}", vop_text(a)),
            InstKind::Cast { a } => format!("cast {}", vop_text(a)),
            InstKind::Horiz { op, a } => format!("horiz.{op:?} {}", vop_text(a)),
            InstKind::Extract { a, lane } => format!("extract {}[{lane}]", vop_text(a)),
            InstKind::Insert { vec, v, lane } => {
                format!("insert {}[{lane}] <- {}", vop_text(vec), vop_text(v))
            }
            InstKind::Query { q } => format!("query {q:?}"),
            InstKind::ScalarArg { arg } => format!("scalar_arg a{}", arg.0),
            InstKind::Load { buf, idx } => format!("load a{}[{}]", buf.0, vop_text(idx)),
            InstKind::VLoad { buf, base } => format!("vload a{}[{}..]", buf.0, vop_text(base)),
            InstKind::Store { buf, idx, val } => {
                format!("store a{}[{}] <- {}", buf.0, vop_text(idx), vop_text(val))
            }
            InstKind::VStore { buf, base, val } => {
                format!(
                    "vstore a{}[{}..] <- {}",
                    buf.0,
                    vop_text(base),
                    vop_text(val)
                )
            }
            InstKind::Atomic {
                op,
                buf,
                idx,
                val,
                has_old,
            } => format!(
                "atomic.{op:?} a{}[{}], {}{}",
                buf.0,
                vop_text(idx),
                vop_text(val),
                if *has_old { " (old)" } else { "" }
            ),
            InstKind::Barrier => "barrier".to_string(),
            InstKind::Phi { args } => {
                let parts: Vec<String> = args
                    .iter()
                    .map(|(p, a)| format!("[bb{p}: {}]", vop_text(a)))
                    .collect();
                format!("phi {}", parts.join(", "))
            }
            InstKind::Undef => "undef".to_string(),
            InstKind::ForIndex => "for_index".to_string(),
            InstKind::IfCond { cond } => format!("if_cond {}", vop_text(cond)),
            InstKind::LoopBounds { start, end, step } => format!(
                "loop_bounds {}, {}, {}",
                vop_text(start),
                vop_text(end),
                vop_text(step)
            ),
        };
        format!("{head}{body}")
    }
}

impl std::fmt::Display for Ssa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ssa kernel \"{}\" ({} blocks)",
            self.name,
            self.blocks.len()
        )?;
        for (b, blk) in self.blocks.iter().enumerate() {
            let preds = if blk.preds.is_empty() {
                "entry".to_string()
            } else {
                blk.preds
                    .iter()
                    .map(|p| format!("bb{p}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            writeln!(f, "bb{b}:  ; preds: {preds}")?;
            for &v in &blk.insts {
                writeln!(f, "  {}", self.inst_text(v))?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

impl Ssa {
    /// Lower back to the structured register IR. Dead phis are pruned; the
    /// surviving values are coalesced into congruence classes
    /// ([`Ssa::coalesce`]) and every class gets one register, so a phi
    /// copy or an `Insert` source copy is emitted only where its two
    /// values really interfere.
    pub fn lower(&mut self) -> Program {
        self.prune_dead_phis();
        let class = self.coalesce();

        // One register per class, numbered in block/inst order.
        let mut regs: Vec<VType> = Vec::new();
        let mut reg_of: Vec<Option<Reg>> = vec![None; self.insts.len()];
        let mut class_reg: Vec<Option<Reg>> = vec![None; self.insts.len()];
        for blk in &self.blocks {
            for &v in &blk.insts {
                let Some(ty) = self.insts[v].ty else { continue };
                let r = *class_reg[class[v]].get_or_insert_with(|| {
                    regs.push(ty);
                    Reg(regs.len() as u32 - 1)
                });
                reg_of[v] = Some(r);
            }
        }

        let mut lo = Lowering {
            ssa: self,
            reg_of,
            regs,
        };
        let mut body = Vec::new();
        lo.emit_shapes(&self.shapes, &mut body);
        Program {
            name: self.name.clone(),
            args: self.args.clone(),
            regs: lo.regs,
            body,
            hints: self.hints,
        }
    }

    /// Drop phis no surviving instruction (transitively) uses. Non-phi
    /// instructions are kept even when dead — removing those is `dce`'s
    /// job, so per-pass instruction counts stay honest.
    fn prune_dead_phis(&mut self) {
        let mut live = vec![false; self.insts.len()];
        let mut work: Vec<ValId> = Vec::new();
        for blk in &self.blocks {
            for &v in &blk.insts {
                if matches!(self.insts[v].kind, InstKind::Phi { .. }) {
                    continue;
                }
                for o in Self::operands(&self.insts[v].kind) {
                    if let VOp::Val(u) = o {
                        if matches!(self.insts[u].kind, InstKind::Phi { .. }) && !live[u] {
                            live[u] = true;
                            work.push(u);
                        }
                    }
                }
            }
        }
        while let Some(p) = work.pop() {
            for o in Self::operands(&self.insts[p].kind) {
                if let VOp::Val(u) = o {
                    if matches!(self.insts[u].kind, InstKind::Phi { .. }) && !live[u] {
                        live[u] = true;
                        work.push(u);
                    }
                }
            }
        }
        for blk in &mut self.blocks {
            blk.insts
                .retain(|&v| live[v] || !matches!(self.insts[v].kind, InstKind::Phi { .. }));
        }
    }
}

/// A fixed-size bit set over value ids (and edge-copy ids after them).
#[derive(Clone, PartialEq)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: usize) -> Bits {
        Bits(vec![0; n.div_ceil(64)])
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    fn union(&mut self, o: &Bits) {
        for (a, b) in self.0.iter_mut().zip(&o.0) {
            *a |= b;
        }
    }

    fn ones(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (w, &word) in self.0.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        out
    }
}

impl Ssa {
    /// Values live on entry to each block, as bit sets of width `width`.
    /// A phi is defined at its block's start and its arguments are used at
    /// the end of their predecessors; an `Undef` is defined before the
    /// entry block.
    fn live_in(&self, width: usize) -> Vec<Bits> {
        let nb = self.blocks.len();
        let mut gen = vec![Bits::new(width); nb];
        let mut kill = vec![Bits::new(width); nb];
        let mut phi_uses = vec![Bits::new(width); nb];
        for (b, blk) in self.blocks.iter().enumerate() {
            for &v in &blk.insts {
                match &self.insts[v].kind {
                    InstKind::Phi { args } => {
                        kill[b].set(v);
                        for &(pred, a) in args {
                            if let VOp::Val(u) = a {
                                phi_uses[pred].set(u);
                            }
                        }
                    }
                    InstKind::Undef => {}
                    kind => {
                        for o in Self::operands(kind) {
                            if let VOp::Val(u) = o {
                                if !kill[b].get(u) {
                                    gen[b].set(u);
                                }
                            }
                        }
                        if self.insts[v].ty.is_some() {
                            kill[b].set(v);
                        }
                    }
                }
            }
        }
        let mut live_in = gen.clone();
        loop {
            let mut changed = false;
            for &b in self.rpo.iter().rev() {
                let mut live = phi_uses[b].clone();
                for &s in &self.blocks[b].succs {
                    live.union(&live_in[s]);
                }
                for (w, word) in live.0.iter_mut().enumerate() {
                    *word = gen[b].0[w] | (*word & !kill[b].0[w]);
                }
                if live != live_in[b] {
                    live_in[b] = live;
                    changed = true;
                }
            }
            if !changed {
                return live_in;
            }
        }
    }

    /// Coalesce values into congruence classes that can share one register,
    /// in the style of Boissinot et al., "Revisiting Out-of-SSA
    /// Translation for Correctness, Code Quality, and Efficiency" (CGO
    /// 2009), over liveness on this CFG. Returns each value's class id.
    ///
    /// Every phi starts in a class with one *edge copy* per predecessor:
    /// the move lowering would emit at the end of that predecessor, in
    /// parallel with the edge's other copies. Then each phi argument and
    /// each `Insert` source (the register an RMW `Insert` updates in place)
    /// is merged into its destination's class unless a member of one class
    /// interferes with a member of the other.
    /// A merged argument's copy becomes a self-move, which lowering drops;
    /// a copy survives only where the two values are live at once — after
    /// `cse` or `licm` stretched one of them, for instance.
    fn coalesce(&self) -> Vec<usize> {
        let n = self.insts.len();
        // Edge copies `(phi, predecessor, argument)`, with ids `n..`.
        let mut copies: Vec<(ValId, BlockId, VOp)> = Vec::new();
        for blk in &self.blocks {
            for &p in &blk.insts {
                let InstKind::Phi { args } = &self.insts[p].kind else {
                    break;
                };
                copies.extend(args.iter().map(|&(pred, a)| (p, pred, a)));
            }
        }
        let total = n + copies.len();
        let live_in = self.live_in(total);

        // Interference: a definition interferes with everything live just
        // after it.
        let mut adj = vec![Bits::new(total); total];
        let mut edge = |a: usize, b: usize| {
            if a != b {
                adj[a].set(b);
                adj[b].set(a);
            }
        };
        for (b, blk) in self.blocks.iter().enumerate() {
            // Live after the block's edge copies: the successors' live-ins,
            // plus a loop's bounds, which the `For` reads after its
            // preheader's copies.
            let mut live = Bits::new(total);
            for &s in &blk.succs {
                live.union(&live_in[s]);
            }
            if let Some(&last) = blk.insts.last() {
                if let InstKind::LoopBounds { .. } = self.insts[last].kind {
                    for u in Self::operands(&self.insts[last].kind) {
                        if let VOp::Val(u) = u {
                            live.set(u);
                        }
                    }
                }
            }
            // A copy holds its argument's value, so it does not interfere
            // with the argument itself.
            let edge_copies: Vec<usize> = (0..copies.len())
                .filter(|&i| copies[i].1 == b)
                .map(|i| n + i)
                .collect();
            for &c in &edge_copies {
                let src = copies[c - n].2.as_val();
                for x in live.ones() {
                    if Some(x) != src {
                        edge(c, x);
                    }
                }
                for &d in &edge_copies {
                    edge(c, d);
                }
            }
            for &c in &edge_copies {
                if let VOp::Val(u) = copies[c - n].2 {
                    live.set(u);
                }
            }
            for &v in blk.insts.iter().rev() {
                let kind = &self.insts[v].kind;
                match kind {
                    InstKind::Phi { .. } => break,
                    InstKind::Undef => continue,
                    _ => {}
                }
                if self.insts[v].ty.is_some() {
                    live.clear(v);
                    for x in live.ones() {
                        edge(v, x);
                    }
                    // An `Insert` that cannot update its source in place
                    // copies the source into its own register first, so its
                    // lane value must not live there.
                    if let InstKind::Insert { v: VOp::Val(x), .. } = kind {
                        edge(v, *x);
                    }
                }
                for o in Self::operands(kind) {
                    if let VOp::Val(u) = o {
                        live.set(u);
                    }
                }
            }
            // A block's phis are all defined at its start; `Undef`s are all
            // defined before the entry block.
            let defined_together: Vec<ValId> = if b == 0 {
                live.ones()
            } else {
                blk.insts
                    .iter()
                    .copied()
                    .take_while(|&v| matches!(self.insts[v].kind, InstKind::Phi { .. }))
                    .collect()
            };
            for &p in &defined_together {
                live.clear(p);
            }
            for &p in &defined_together {
                for x in live.ones() {
                    edge(p, x);
                }
                for &q in &defined_together {
                    edge(p, q);
                }
            }
        }

        // Union-find over classes; a root's `adj` row is the union of its
        // members' rows.
        let ty_of = |x: usize| {
            let v = if x < n { x } else { copies[x - n].0 };
            self.insts[v].ty
        };
        let mut parent: Vec<usize> = (0..total).collect();
        let mut members: Vec<Vec<usize>> = (0..total).map(|x| vec![x]).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut merge = |a: usize, b: usize| -> bool {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra == rb {
                return true;
            }
            if ty_of(ra) != ty_of(rb) || members[rb].iter().any(|&m| adj[ra].get(m)) {
                return false;
            }
            parent[rb] = ra;
            let moved = std::mem::take(&mut members[rb]);
            members[ra].extend(moved);
            let row = std::mem::replace(&mut adj[rb], Bits::new(0));
            adj[ra].union(&row);
            true
        };
        for (i, &(p, _, _)) in copies.iter().enumerate() {
            let merged = merge(p, n + i);
            debug_assert!(merged, "a phi interferes with its own edge copy");
        }
        for &(p, _, a) in &copies {
            if let VOp::Val(u) = a {
                merge(u, p);
            }
        }
        for blk in &self.blocks {
            for &v in &blk.insts {
                if let InstKind::Insert {
                    vec: VOp::Val(s), ..
                } = self.insts[v].kind
                {
                    merge(s, v);
                }
            }
        }
        (0..n).map(|v| find(&mut parent, v)).collect()
    }
}

struct Lowering<'s> {
    ssa: &'s Ssa,
    reg_of: Vec<Option<Reg>>,
    regs: Vec<VType>,
}

impl Lowering<'_> {
    fn reg(&self, v: ValId) -> Reg {
        self.reg_of[v].expect("value has a register")
    }

    fn opnd(&self, o: &VOp) -> Operand {
        match o {
            VOp::Val(v) => Operand::Reg(self.reg(*v)),
            VOp::ImmF(x) => Operand::ImmF(*x),
            VOp::ImmI(x) => Operand::ImmI(*x),
            VOp::Reg(_) => unreachable!("register operand survived renaming"),
        }
    }

    fn emit_shapes(&mut self, shapes: &[Shape], out: &mut Vec<Op>) {
        for s in shapes {
            match s {
                Shape::Seq(b) => self.emit_block(*b, out),
                Shape::If {
                    cond,
                    then_s,
                    then_exit,
                    els_s,
                    els_exit,
                    join,
                } => {
                    let cond_vop = match &self.ssa.insts[*cond].kind {
                        InstKind::IfCond { cond } => *cond,
                        other => unreachable!("if shape anchored to {other:?}"),
                    };
                    let mut then = Vec::new();
                    self.emit_shapes(then_s, &mut then);
                    then.extend(self.phi_copies(*then_exit, *join));
                    let mut els = Vec::new();
                    self.emit_shapes(els_s, &mut els);
                    els.extend(self.phi_copies(*els_exit, *join));
                    out.push(Op::If {
                        cond: self.opnd(&cond_vop),
                        then,
                        els,
                    });
                }
                Shape::For {
                    bounds,
                    header,
                    var,
                    body_s,
                    latch,
                } => {
                    let (start, end, step) = match &self.ssa.insts[*bounds].kind {
                        InstKind::LoopBounds { start, end, step } => (*start, *end, *step),
                        other => unreachable!("for shape anchored to {other:?}"),
                    };
                    let pre = self.ssa.insts[*bounds].block;
                    out.extend(self.phi_copies(pre, *header));
                    let mut body = Vec::new();
                    self.emit_shapes(body_s, &mut body);
                    body.extend(self.phi_copies(*latch, *header));
                    out.push(Op::For {
                        var: self.reg(*var),
                        start: self.opnd(&start),
                        end: self.opnd(&end),
                        step: self.opnd(&step),
                        body,
                    });
                }
            }
        }
    }

    fn emit_block(&mut self, b: BlockId, out: &mut Vec<Op>) {
        for i in 0..self.ssa.blocks[b].insts.len() {
            let v = self.ssa.blocks[b].insts[i];
            self.emit_inst(v, out);
        }
    }

    fn emit_inst(&mut self, v: ValId, out: &mut Vec<Op>) {
        let dst = self.reg_of[v];
        match &self.ssa.insts[v].kind {
            InstKind::Phi { .. }
            | InstKind::Undef
            | InstKind::ForIndex
            | InstKind::IfCond { .. }
            | InstKind::LoopBounds { .. } => {}
            InstKind::Bin { op, a, b } => out.push(Op::Bin {
                dst: dst.unwrap(),
                op: *op,
                a: self.opnd(a),
                b: self.opnd(b),
            }),
            InstKind::Un { op, a } => out.push(Op::Un {
                dst: dst.unwrap(),
                op: *op,
                a: self.opnd(a),
            }),
            InstKind::Mad { a, b, c } => out.push(Op::Mad {
                dst: dst.unwrap(),
                a: self.opnd(a),
                b: self.opnd(b),
                c: self.opnd(c),
            }),
            InstKind::Select { cond, a, b } => out.push(Op::Select {
                dst: dst.unwrap(),
                cond: self.opnd(cond),
                a: self.opnd(a),
                b: self.opnd(b),
            }),
            InstKind::Mov { a } => out.push(Op::Mov {
                dst: dst.unwrap(),
                a: self.opnd(a),
            }),
            InstKind::Cast { a } => out.push(Op::Cast {
                dst: dst.unwrap(),
                a: self.opnd(a),
            }),
            InstKind::Horiz { op, a } => out.push(Op::Horiz {
                dst: dst.unwrap(),
                op: *op,
                a: self.opnd(a),
            }),
            InstKind::Extract { a, lane } => out.push(Op::Extract {
                dst: dst.unwrap(),
                a: self.opnd(a),
                lane: *lane,
            }),
            InstKind::Insert { vec, v: val, lane } => {
                let d = dst.unwrap();
                let coalesced = matches!(vec, VOp::Val(s) if self.reg_of[*s] == Some(d));
                if !coalesced {
                    out.push(Op::Mov {
                        dst: d,
                        a: self.opnd(vec),
                    });
                }
                out.push(Op::Insert {
                    dst: d,
                    v: self.opnd(val),
                    lane: *lane,
                });
            }
            InstKind::Query { q } => out.push(Op::Query {
                dst: dst.unwrap(),
                q: *q,
            }),
            InstKind::ScalarArg { arg } => out.push(Op::Load {
                dst: dst.unwrap(),
                buf: *arg,
                idx: Operand::ImmI(0),
            }),
            InstKind::Load { buf, idx } => out.push(Op::Load {
                dst: dst.unwrap(),
                buf: *buf,
                idx: self.opnd(idx),
            }),
            InstKind::VLoad { buf, base } => out.push(Op::VLoad {
                dst: dst.unwrap(),
                buf: *buf,
                base: self.opnd(base),
            }),
            InstKind::Store { buf, idx, val } => out.push(Op::Store {
                buf: *buf,
                idx: self.opnd(idx),
                val: self.opnd(val),
            }),
            InstKind::VStore { buf, base, val } => out.push(Op::VStore {
                buf: *buf,
                base: self.opnd(base),
                val: self.opnd(val),
            }),
            InstKind::Atomic {
                op,
                buf,
                idx,
                val,
                has_old,
            } => out.push(Op::Atomic {
                op: *op,
                buf: *buf,
                idx: self.opnd(idx),
                val: self.opnd(val),
                old: has_old.then(|| dst.unwrap()),
            }),
            InstKind::Barrier => out.push(Op::Barrier),
        }
    }

    /// Copies materializing `succ`'s phis along the `pred → succ` edge,
    /// sequentialized so parallel-copy semantics hold (self-copies are
    /// dropped; a cycle is broken with one temporary).
    fn phi_copies(&mut self, pred: BlockId, succ: BlockId) -> Vec<Op> {
        let mut pairs: Vec<(Reg, Operand, VType)> = Vec::new();
        for &v in &self.ssa.blocks[succ].insts {
            let InstKind::Phi { args } = &self.ssa.insts[v].kind else {
                break;
            };
            let arg = args
                .iter()
                .find(|(p, _)| *p == pred)
                .map(|(_, a)| *a)
                .unwrap_or_else(|| panic!("phi in block {succ} missing arg for pred {pred}"));
            let dst = self.reg(v);
            let src = self.opnd(&arg);
            if src == Operand::Reg(dst) {
                continue;
            }
            pairs.push((dst, src, self.ssa.insts[v].ty.expect("phi type")));
        }
        let mut out = Vec::new();
        while !pairs.is_empty() {
            let ready = pairs.iter().position(|(dst, _, _)| {
                !pairs
                    .iter()
                    .any(|(_, src, _)| matches!(src, Operand::Reg(r) if r == dst))
            });
            match ready {
                Some(i) => {
                    let (dst, src, _) = pairs.remove(i);
                    out.push(Op::Mov { dst, a: src });
                }
                None => {
                    // Permutation cycle: free one destination via a temp.
                    let (dst, _, ty) = pairs[0];
                    let temp = Reg(self.regs.len() as u32);
                    self.regs.push(ty);
                    out.push(Op::Mov {
                        dst: temp,
                        a: Operand::Reg(dst),
                    });
                    for (_, src, _) in pairs.iter_mut() {
                        if matches!(src, Operand::Reg(r) if *r == dst) {
                            *src = Operand::Reg(temp);
                        }
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Register compaction
// ---------------------------------------------------------------------------

/// Shrink a lowered program's register file by interval reuse: registers
/// with disjoint live ranges (over the same linearized walk
/// `Program::register_footprint` uses, with its loop back-edge extension)
/// and identical declared types share one register. A register that some
/// path reads before writing it (lowering coalesces a never-written value
/// with the values written on other paths) keeps a private register in
/// both directions — those reads must observe the engine's
/// zero-initialization. Unreferenced registers are dropped.
pub(crate) fn compact_registers(p: &Program) -> Program {
    let n = p.regs.len();
    if n == 0 {
        return p.clone();
    }
    struct W {
        first: Vec<usize>,
        last: Vec<usize>,
        /// Read at some point where a path from the entry leaves it
        /// unwritten.
        read_unwritten: Vec<bool>,
        /// Written on every path to the current point.
        written: Vec<bool>,
        pos: usize,
    }
    impl W {
        fn touch(&mut self, r: Reg, is_read: bool) {
            let i = r.0 as usize;
            if self.first[i] == usize::MAX {
                self.first[i] = self.pos;
            }
            self.last[i] = self.pos;
            if !is_read {
                self.written[i] = true;
            } else if !self.written[i] {
                self.read_unwritten[i] = true;
            }
        }
        fn read(&mut self, o: &Operand) {
            if let Operand::Reg(r) = o {
                self.touch(*r, true);
            }
        }
        fn walk(&mut self, ops: &[Op]) {
            for op in ops {
                self.pos += 1;
                match op {
                    Op::Bin { a, b, .. } => {
                        self.read(a);
                        self.read(b);
                    }
                    Op::Un { a, .. } | Op::Mov { a, .. } | Op::Cast { a, .. } => self.read(a),
                    Op::Mad { a, b, c, .. } => {
                        self.read(a);
                        self.read(b);
                        self.read(c);
                    }
                    Op::Select { cond, a, b, .. } => {
                        self.read(cond);
                        self.read(a);
                        self.read(b);
                    }
                    Op::Horiz { a, .. } | Op::Extract { a, .. } => self.read(a),
                    Op::Insert { dst, v, .. } => {
                        // RMW: the destination is read before it is written.
                        self.touch(*dst, true);
                        self.read(v);
                    }
                    Op::Load { idx, .. } => self.read(idx),
                    Op::VLoad { base, .. } => self.read(base),
                    Op::Store { idx, val, .. } => {
                        self.read(idx);
                        self.read(val);
                    }
                    Op::VStore { base, val, .. } => {
                        self.read(base);
                        self.read(val);
                    }
                    Op::Atomic { idx, val, .. } => {
                        self.read(idx);
                        self.read(val);
                    }
                    Op::If { cond, then, els } => {
                        self.read(cond);
                        let before = self.written.clone();
                        self.walk(then);
                        let after_then = std::mem::replace(&mut self.written, before);
                        self.walk(els);
                        for (w, t) in self.written.iter_mut().zip(after_then) {
                            *w &= t;
                        }
                        continue;
                    }
                    Op::For {
                        var,
                        start,
                        end,
                        step,
                        body,
                    } => {
                        self.read(start);
                        self.read(end);
                        self.read(step);
                        let before = self.written.clone();
                        self.touch(*var, false);
                        let loop_start = self.pos;
                        self.walk(body);
                        self.pos += 1;
                        self.touch(*var, false);
                        let loop_end = self.pos;
                        // The loop may run zero times.
                        self.written = before;
                        // Back-edge: values live across the loop entry stay
                        // live (and thus unshareable) to the loop's end.
                        for i in 0..self.first.len() {
                            if self.first[i] < loop_start
                                && self.last[i] > loop_start
                                && self.last[i] < loop_end
                            {
                                self.last[i] = loop_end;
                            }
                        }
                        continue;
                    }
                    Op::Query { .. } | Op::Barrier => {}
                }
                if let Some(d) = op.dst_reg() {
                    self.touch(d, false);
                }
            }
        }
    }
    let mut w = W {
        first: vec![usize::MAX; n],
        last: vec![0; n],
        read_unwritten: vec![false; n],
        written: vec![false; n],
        pos: 0,
    };
    w.walk(&p.body);

    // Assign compacted ids in order of first touch; reuse an id whose
    // current holder's interval ended before ours starts and whose type
    // matches exactly.
    let mut order: Vec<usize> = (0..n).filter(|&i| w.first[i] != usize::MAX).collect();
    order.sort_by_key(|&i| (w.first[i], i));
    struct Slot {
        ty: VType,
        busy_until: usize,
        sticky: bool,
    }
    let mut slots: Vec<Slot> = Vec::new();
    let mut map: Vec<u32> = vec![u32::MAX; n];
    for &i in &order {
        let ty = p.regs[i];
        if w.read_unwritten[i] {
            map[i] = slots.len() as u32;
            slots.push(Slot {
                ty,
                busy_until: usize::MAX,
                sticky: true,
            });
            continue;
        }
        let cand = slots
            .iter()
            .position(|s| !s.sticky && s.ty == ty && s.busy_until < w.first[i]);
        match cand {
            Some(s) => {
                slots[s].busy_until = w.last[i];
                map[i] = s as u32;
            }
            None => {
                map[i] = slots.len() as u32;
                slots.push(Slot {
                    ty,
                    busy_until: w.last[i],
                    sticky: false,
                });
            }
        }
    }

    let remap = |r: Reg| -> Reg {
        let m = map[r.0 as usize];
        debug_assert!(m != u32::MAX, "remap of untouched register r{}", r.0);
        Reg(m)
    };
    let ro = |o: &Operand| -> Operand {
        match o {
            Operand::Reg(r) => Operand::Reg(remap(*r)),
            imm => *imm,
        }
    };
    fn remap_body(
        ops: &[Op],
        remap: &dyn Fn(Reg) -> Reg,
        ro: &dyn Fn(&Operand) -> Operand,
    ) -> Vec<Op> {
        ops.iter()
            .map(|op| match op {
                Op::Bin { dst, op, a, b } => Op::Bin {
                    dst: remap(*dst),
                    op: *op,
                    a: ro(a),
                    b: ro(b),
                },
                Op::Un { dst, op, a } => Op::Un {
                    dst: remap(*dst),
                    op: *op,
                    a: ro(a),
                },
                Op::Mad { dst, a, b, c } => Op::Mad {
                    dst: remap(*dst),
                    a: ro(a),
                    b: ro(b),
                    c: ro(c),
                },
                Op::Select { dst, cond, a, b } => Op::Select {
                    dst: remap(*dst),
                    cond: ro(cond),
                    a: ro(a),
                    b: ro(b),
                },
                Op::Mov { dst, a } => Op::Mov {
                    dst: remap(*dst),
                    a: ro(a),
                },
                Op::Cast { dst, a } => Op::Cast {
                    dst: remap(*dst),
                    a: ro(a),
                },
                Op::Horiz { dst, op, a } => Op::Horiz {
                    dst: remap(*dst),
                    op: *op,
                    a: ro(a),
                },
                Op::Extract { dst, a, lane } => Op::Extract {
                    dst: remap(*dst),
                    a: ro(a),
                    lane: *lane,
                },
                Op::Insert { dst, v, lane } => Op::Insert {
                    dst: remap(*dst),
                    v: ro(v),
                    lane: *lane,
                },
                Op::Query { dst, q } => Op::Query {
                    dst: remap(*dst),
                    q: *q,
                },
                Op::Load { dst, buf, idx } => Op::Load {
                    dst: remap(*dst),
                    buf: *buf,
                    idx: ro(idx),
                },
                Op::VLoad { dst, buf, base } => Op::VLoad {
                    dst: remap(*dst),
                    buf: *buf,
                    base: ro(base),
                },
                Op::Store { buf, idx, val } => Op::Store {
                    buf: *buf,
                    idx: ro(idx),
                    val: ro(val),
                },
                Op::VStore { buf, base, val } => Op::VStore {
                    buf: *buf,
                    base: ro(base),
                    val: ro(val),
                },
                Op::Atomic {
                    op,
                    buf,
                    idx,
                    val,
                    old,
                } => Op::Atomic {
                    op: *op,
                    buf: *buf,
                    idx: ro(idx),
                    val: ro(val),
                    old: old.map(remap),
                },
                Op::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => Op::For {
                    var: remap(*var),
                    start: ro(start),
                    end: ro(end),
                    step: ro(step),
                    body: remap_body(body, remap, ro),
                },
                Op::If { cond, then, els } => Op::If {
                    cond: ro(cond),
                    then: remap_body(then, remap, ro),
                    els: remap_body(els, remap, ro),
                },
                Op::Barrier => Op::Barrier,
            })
            .collect()
    }

    Program {
        name: p.name.clone(),
        args: p.args.clone(),
        regs: slots.iter().map(|s| s.ty).collect(),
        body: remap_body(&p.body, &remap, &ro),
        hints: p.hints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_ndrange, ArgBinding, NDRange};
    use crate::memory::{BufferData, MemoryPool};
    use crate::prelude::KernelBuilder;
    use crate::trace::NullTracer;
    use crate::types::{Access, Scalar};

    #[test]
    fn a_loop_reads_its_bounds_after_the_preheader_copies() {
        // r = 5; for j in 0..1 { for i in 0..r { r += 1 } }; out = r.
        let u32s = VType::scalar(Scalar::U32);
        let mut kb = KernelBuilder::new("bounds");
        let o = kb.arg_global(Scalar::U32, Access::WriteOnly, false);
        let r = kb.mov(Operand::ImmI(5), u32s);
        kb.for_loop(
            Operand::ImmI(0),
            Operand::ImmI(1),
            Operand::ImmI(1),
            |kb, _| {
                kb.for_loop(Operand::ImmI(0), r.into(), Operand::ImmI(1), |kb, _| {
                    kb.bin_into(r, BinOp::Add, r.into(), Operand::ImmI(1));
                });
            },
        );
        let gid = kb.query_global_id(0);
        kb.store(o, gid.into(), r.into());
        let mut ssa = Ssa::build(&kb.finish());

        // Start the inner loop's `r` at an immediate 0 instead of the outer
        // phi, which stays the inner loop's bound: the edge copy `r = 0`
        // then sits between the bound's definition and the `For` that
        // reads it, so the two must not share a register.
        let is_phi = |v: ValId| matches!(ssa.insts[v].kind, InstKind::Phi { .. });
        let (inner, k) = (0..ssa.insts.len())
            .find_map(|v| match &ssa.insts[v].kind {
                InstKind::Phi { args } => args
                    .iter()
                    .position(|(_, a)| a.as_val().is_some_and(is_phi))
                    .map(|k| (v, k)),
                _ => None,
            })
            .expect("the inner loop's phi for r");
        if let InstKind::Phi { args } = &mut ssa.insts[inner].kind {
            args[k].1 = VOp::ImmI(0);
        }

        let p = compact_registers(&ssa.lower());
        p.validate().unwrap();
        let mut pool = MemoryPool::new();
        let out = pool.add(BufferData::zeroed(Scalar::U32, 1));
        let nd = NDRange::d1(1, 1);
        run_ndrange(
            &p,
            &[ArgBinding::Global(out)],
            &mut pool,
            nd,
            &mut NullTracer,
        )
        .unwrap();
        assert_eq!(pool.get(out).as_u32(), &[5], "lowered:\n{p}");
    }
}
