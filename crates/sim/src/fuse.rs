//! The linker: cleanup, superinstruction fusion and register allocation.
//!
//! Linking resolves names, semantics, constants and registers once (see
//! [`crate::exec`]). A one-instruction-per-dispatch form still pays one
//! dispatch, one full lane traversal and one intermediate register
//! materialization *per instruction*, even for chains like
//! `mul → shr → add` that the cycle model prices as a single fused idiom
//! (`vmpa`/`vdmpy`-style). The FAST link ([`Executable::link_with`] with
//! [`ExecConfig::FAST`]) links a program so those chains run as
//! **superinstructions**: one dispatch per chain, intermediates in the
//! context's scratch rows at their own width, a single register write at
//! the root. It builds its graph straight from the program and allocates
//! registers once, for the fused code. [`ExecConfig::REFERENCE`] runs the
//! same pipeline with stages 2–4 off: every instruction of the program,
//! dead or alive, becomes its own one-step kernel.
//!
//! The pipeline, in order:
//!
//! 1. **Graph construction** — a program is already SSA: a virtual
//!    register is its position. One walk in program order interns loads
//!    into input slots (first-load order) and splats into the pool
//!    (first-use order), resolves each `Op` against the table and checks
//!    its operand shapes ([`fpir_isa::check_shape`]); each `Op` becomes a
//!    def-use node whose operands are earlier nodes, input slots or pool
//!    constants, held in one flat operand array. This walk is the only
//!    one, so slot order, pool order and every link error before register
//!    allocation are the same for both configurations. Without fusion the
//!    graph stops here, every node live.
//! 2. **Constant folding** — instructions whose operands are all pool
//!    constants are evaluated once at link time through the reference
//!    VM's evaluator, [`fpir_isa::eval_sem_into`]. A lane-wise function
//!    of splats is a splat, so the result is interned into the pool as
//!    its `(type, lane)` through stage 1's map. A fold that would need a
//!    pool index past `u16::MAX` is skipped and the instruction stays.
//! 3. **Dead-write elimination** — nodes unreachable from the output
//!    are dropped. This is observationally safe because every lane
//!    helper is a *total* function (`x / 0 == 0`, shifts wrap) and
//!    stage 1 checks every instruction's shapes, dead or alive
//!    ([`fpir_isa::check_shape`]), so a linked executable cannot raise
//!    [`crate::vm::ExecError::Sem`] at run time: removing an instruction
//!    can never remove an error.
//! 4. **Fusion grouping** — each live node, in program order, grows a
//!    group rooted at itself by absorbing the whole group of an earlier
//!    producer once *every* live consumer of that producer is inside:
//!    single-use chains (arith chains, widening-mul/acc ladders,
//!    splat-feeding ops) and multi-use diamonds alike. Lane counts must
//!    match, the kernel must stay within `MAX_STEPS` steps, and the
//!    program's output is never absorbed. Candidates are visited once, in
//!    descending node order: absorbing a group exposes only producers
//!    below it, and a candidate over the step budget stays over it, since
//!    the group only grows.
//!
//!    The grouping is a worklist. Only a producer of a member can become
//!    absorbable, so a node's count of consumers inside the group is
//!    bumped as members join, and the producer becomes a candidate when
//!    the count reaches its number of distinct live consumers.
//!    Membership is a stamp over nodes; groups are intrusive lists,
//!    spliced in O(1). An absorption walks only the candidate's own
//!    group. A group holds at most `MAX_STEPS` nodes, so every per-root
//!    cost is bounded by a constant and the stage is linear in the
//!    program.
//! 5. **Emission and register allocation** — each surviving root
//!    becomes one kernel on the tape, its group's members as steps in
//!    node order, each step one compiled strip loop. A member writes the
//!    temp row of its index in the kernel; the root writes its register
//!    row, which ends the kernel. A source that is an internal edge reads
//!    the producer's temp row; any other names its register row, input
//!    slot or pool constant directly, and a splat-constant source may be
//!    baked into the step's loop as a captured scalar. Every kernel of a
//!    REFERENCE link is one step reading its operands as the program
//!    lists them, repeats included. Registers are allocated by a linear
//!    scan over the kernels, so a fused link's `peak_regs` reflects the
//!    shorter lifetimes (in practice it only shrinks against the
//!    REFERENCE link). A root nothing reads that is not the output (only
//!    a REFERENCE link keeps one) writes its register, which is free
//!    again at once. Steps and their sources are appended to the
//!    executable's flat arrays, sized up front from the roots: the stage
//!    allocates once per array plus one compiled closure per step, never
//!    per source. Last, the pool is compacted to the constants still
//!    referenced.
//!
//! **Why bit-identity holds.** Every step of either configuration runs a
//! kernel compiled by `fpir-isa` ([`fpir_isa::sem_slice_fn`], or its
//! splat-capture form), and those kernels and the
//! reference VM's whole-vector [`fpir_isa::eval_sem_into`] are sinks over
//! one lane table: each semantic's lane arithmetic is written once and
//! only the loop around it differs, pinned by tests in `fpir-isa`. Shape
//! errors cannot diverge either: operand types are static after linking
//! (input bindings are type-checked before dispatch), and stage 1
//! rejects at link time, with the reference VM's error, every instruction
//! whose shapes `eval_sem_into` would reject, dead or alive. Binding
//! errors are untouched because stage 1 builds one input slot table for
//! both configurations — unbound/mistyped inputs blame the same load,
//! position, and register either way.

use crate::exec::{Executable, FSrc, FStep, InputSlot, Span, MAX_STEPS};
use crate::program::{PKind, Program, Reg};
use crate::vm::ExecError;
use fpir::interp::Value;
use fpir::types::{ScalarType, VectorType};
use fpir::{Isa, MachOp};
use fpir_isa::{check_shape, eval_sem_into, MachSem, Target, MAX_ARITY};
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;

/// Which link runs: [`ExecConfig::FAST`] links through the
/// whole pipeline (see the [module docs](self)), and
/// [`ExecConfig::REFERENCE`] through stages 1 and 5 only, one kernel per
/// program instruction. Outputs are bit-identical; only speed differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Link through the cleanup + superinstruction fusion pipeline.
    pub fuse: bool,
}

impl ExecConfig {
    /// Fused engine: the default for every production consumer.
    pub const FAST: ExecConfig = ExecConfig { fuse: true };
    /// One kernel per instruction, kept as the differential baseline.
    pub const REFERENCE: ExecConfig = ExecConfig { fuse: false };
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::FAST
    }
}

/// What a program register resolves to at link time: an input slot, a
/// pool constant, or the value of the program's `k`-th `Op` instruction
/// (`Node(k)`, a node of the graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Node(usize),
    In(u16),
    Const(u16),
}

/// Narrow an index into a linked operand's 16-bit field, or report the
/// index space that ran out.
fn index16(i: usize, space: &'static str) -> Result<u16, ExecError> {
    u16::try_from(i).map_err(|_| ExecError::IndexOverflow { space, limit: 1 << 16 })
}

/// One def-use node: an `Op` instruction of the program, its operands a
/// span of [`Graph::args`].
struct Node {
    op: MachOp,
    sem: MachSem,
    ty: VectorType,
    args: Span,
    pos: u32,
    reg: Reg,
}

/// "No node": ends a group list and marks an unset stamp.
const NONE: usize = usize::MAX;

/// The program as a def-use graph after stages 1–3, carrying the input
/// slots and the pool through to the executable.
struct Graph {
    isa: Isa,
    inputs: Vec<InputSlot>,
    /// The splat pool: each constant's type and lane value.
    consts: Vec<(VectorType, i128)>,
    nodes: Vec<Node>,
    /// Operand lists of `nodes`.
    args: Vec<Src>,
    live: Vec<bool>,
    out_src: Src,
}

/// Link a program per `cfg` (see the [module docs](self)).
///
/// # Errors
///
/// As [`Executable::link_with`].
pub(crate) fn link(
    p: &Program,
    target: &Target,
    cfg: &ExecConfig,
) -> Result<Executable, ExecError> {
    let graph = Graph::build(p, target, cfg.fuse)?;
    let groups = if cfg.fuse { Grouper::new(&graph).run() } else { Groups::singletons(&graph) };
    let exe = emit(graph, &groups)?;
    // Debug builds audit every artifact leaving the linker: a linker bug
    // is an internal invariant violation (panic), never a user-visible
    // ExecError.
    #[cfg(debug_assertions)]
    if let Err(v) = crate::verify::verify_executable(&exe) {
        panic!("link produced an unverifiable executable: {v}\n{exe}");
    }
    Ok(exe)
}

impl Graph {
    /// Stages 1–3: graph construction, then, when `fuse` is set,
    /// constant folding and dead-write elimination.
    ///
    /// # Errors
    ///
    /// An ISA mismatch, an opcode missing from the table, operands the
    /// semantics reject (the [`ExecError::Sem`] that
    /// [`crate::vm::execute`] raises when it reaches the instruction), an
    /// input loaded at two different types, or more than 2^16 input
    /// slots or pool constants.
    fn build(p: &Program, target: &Target, fuse: bool) -> Result<Graph, ExecError> {
        // ---- 1. graph construction --------------------------------
        if p.isa != target.isa {
            return Err(ExecError::IsaMismatch { program: p.isa, target: target.isa });
        }
        let insts = p.insts();
        let (mut loads, mut splats, mut n_args) = (0, 0, 0);
        for inst in insts {
            match &inst.kind {
                PKind::Load { .. } => loads += 1,
                PKind::Splat { .. } => splats += 1,
                PKind::Op { args, .. } => n_args += args.len(),
            }
        }
        let mut slot_of: HashMap<&str, u16> = HashMap::with_capacity(loads);
        let mut const_of: HashMap<(VectorType, i128), u16> = HashMap::with_capacity(splats);
        let mut inputs: Vec<InputSlot> = Vec::with_capacity(loads);
        let mut consts: Vec<(VectorType, i128)> = Vec::with_capacity(splats);
        let mut defs: Vec<Src> = Vec::with_capacity(insts.len());
        let mut nodes: Vec<Node> = Vec::with_capacity(insts.len());
        let mut args: Vec<Src> = Vec::with_capacity(n_args);
        for (i, inst) in insts.iter().enumerate() {
            let def = match &inst.kind {
                PKind::Load { name } => Src::In(match slot_of.get(name.as_str()) {
                    Some(&s) => {
                        let first = inputs[s as usize].ty;
                        if first != inst.ty {
                            // Two loads of one name at different types can
                            // never both succeed; reject at link time with
                            // the second load's position.
                            return Err(ExecError::InputTypeMismatch {
                                name: name.clone(),
                                pos: i,
                                reg: inst.dst,
                                declared: inst.ty,
                                bound: first,
                            });
                        }
                        s
                    }
                    None => {
                        let s = index16(inputs.len(), "input slots")?;
                        slot_of.insert(name, s);
                        inputs.push(InputSlot {
                            name: name.clone(),
                            ty: inst.ty,
                            pos: i,
                            reg: inst.dst,
                        });
                        s
                    }
                }),
                PKind::Splat { value } => {
                    Src::Const(intern_const(&mut consts, &mut const_of, inst.ty, *value)?)
                }
                PKind::Op { op, args: regs } => {
                    let (pos, reg) = (i, inst.dst);
                    let sem =
                        target.def(*op).ok_or(ExecError::UnknownOp { op: *op, pos, reg })?.sem;
                    check_shape(sem, regs.iter().map(|&r| insts[r].ty), inst.ty)
                        .map_err(|what| ExecError::Sem { op: *op, pos, reg, what })?;
                    let span = Span::push(&mut args, regs.iter().map(|&r| defs[r]));
                    nodes.push(Node {
                        op: *op,
                        sem,
                        ty: inst.ty,
                        args: span,
                        pos: pos as u32,
                        reg,
                    });
                    Src::Node(nodes.len() - 1)
                }
            };
            defs.push(def);
        }
        let mut out_src = defs[p.output()];
        if !fuse {
            let live = vec![true; nodes.len()];
            return Ok(Graph { isa: target.isa, inputs, consts, nodes, args, live, out_src });
        }

        // ---- 2. constant folding ----------------------------------
        // One in-order pass: each folded node becomes a pool constant,
        // so its consumers see a constant operand and may fold in turn.
        let mut folded: Vec<Option<u16>> = vec![None; nodes.len()];
        fn resolve(folded: &[Option<u16>], s: Src) -> Src {
            match s {
                Src::Node(j) => folded[j].map_or(s, Src::Const),
                _ => s,
            }
        }
        let mut lanes: Vec<i128> = Vec::new();
        // A fold's operands as `Value`s, on recycled buffers.
        let mut fold_args: Vec<Value> = Vec::new();
        let mut fold_bufs: Vec<Vec<i128>> = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            let a = &mut args[node.args.range()];
            for s in a.iter_mut() {
                *s = resolve(&folded, *s);
            }
            // Fold all-constant operands through the engine's own
            // evaluator.
            if !a.is_empty() && a.iter().all(|s| matches!(s, Src::Const(_))) {
                for s in a.iter() {
                    let Src::Const(c) = *s else { unreachable!() };
                    let (ty, v) = consts[c as usize];
                    let mut buf = fold_bufs.pop().unwrap_or_default();
                    buf.clear();
                    buf.resize(ty.lanes as usize, v);
                    fold_args.push(Value::trusted(ty, buf));
                }
                let mut refs: [&Value; MAX_ARITY] = [&fold_args[0]; MAX_ARITY];
                for (r, v) in refs.iter_mut().zip(&fold_args) {
                    *r = v;
                }
                // Lane-wise semantics on splats always yield a splat;
                // checked anyway, since the pool keeps one lane per entry.
                eval_sem_into(node.sem, &refs[..a.len()], node.ty, &mut lanes)
                    .expect("stage 1 checked the shapes");
                fold_bufs.extend(fold_args.drain(..).map(Value::into_lanes));
                if lanes.iter().all(|&x| x == lanes[0]) {
                    folded[i] = intern_const(&mut consts, &mut const_of, node.ty, lanes[0]).ok();
                }
            }
        }
        out_src = resolve(&folded, out_src);

        // ---- 3. dead-write elimination (reachability) -------------
        // Operands always name earlier nodes, so one backward sweep
        // marks everything the output reaches.
        let mut live = vec![false; nodes.len()];
        if let Src::Node(root) = out_src {
            live[root] = true;
        }
        for j in (0..nodes.len()).rev() {
            if !live[j] {
                continue;
            }
            for &a in &args[nodes[j].args.range()] {
                if let Src::Node(k) = a {
                    live[k] = true;
                }
            }
        }
        Ok(Graph { isa: target.isa, inputs, consts, nodes, args, live, out_src })
    }

    /// Node `j`'s operands.
    fn args(&self, j: usize) -> &[Src] {
        &self.args[self.nodes[j].args.range()]
    }

    /// The program's output node, if the output is computed.
    fn out_node(&self) -> Option<usize> {
        match self.out_src {
            Src::Node(r) => Some(r),
            _ => None,
        }
    }

    fn ty(&self, s: Src) -> VectorType {
        match s {
            Src::Node(j) => self.nodes[j].ty,
            Src::In(k) => self.inputs[k as usize].ty,
            Src::Const(c) => self.consts[c as usize].0,
        }
    }
}

/// A link's code as it is built, the flat arrays of an [`Executable`]:
/// stage 5's output.
#[derive(Default)]
struct Emitted {
    steps: Vec<FStep>,
    srcs: Vec<FSrc>,
    tys: Vec<ScalarType>,
    phys_regs: usize,
}

impl Emitted {
    /// Append the step of node `n` writing row `dst` from `srcs`, each
    /// with its element type, and compile its strip loop. The first
    /// source that is a pool constant (its splat value in `consts`) and
    /// that `n`'s semantics can capture becomes a captured scalar
    /// ([`fpir_isa::sem_slice_fn_splat`]): the step keeps the same
    /// audited sources, but the compiled loop never reads the constant
    /// row.
    fn push_step(
        &mut self,
        n: &Node,
        dst: u32,
        srcs: impl IntoIterator<Item = (FSrc, ScalarType)>,
        consts: &[(VectorType, i128)],
    ) {
        let src0 = self.srcs.len();
        for (src, t) in srcs {
            self.srcs.push(src);
            self.tys.push(t);
        }
        let (ty, tys) = (n.ty.elem, &self.tys[src0..]);
        let (captured, eval) = self.srcs[src0..]
            .iter()
            .enumerate()
            .find_map(|(k, s)| {
                let FSrc::Const(c) = *s else { return None };
                let c = consts[c as usize].1;
                Some((Some(k as u8), fpir_isa::sem_slice_fn_splat(n.sem, tys, ty, k, c)?))
            })
            .unwrap_or_else(|| (None, fpir_isa::sem_slice_fn(n.sem, tys, ty)));
        let srcs = Span::of(src0, self.srcs.len());
        let (op, sem, ty, pos, reg) = (n.op, n.sem, n.ty, n.pos, n.reg);
        self.steps.push(FStep { op, sem, ty, srcs, dst, pos, reg, captured, eval });
    }

    /// Drop the pool entries nothing references any more (folding may
    /// have appended, baking may have orphaned) and assemble the
    /// executable.
    fn assemble(mut self, graph: Graph, mut output: FSrc, out_elem: ScalarType) -> Executable {
        let Graph { isa, inputs, mut consts, .. } = graph;
        let mut used = vec![false; consts.len()];
        for s in self.srcs.iter().chain([&output]) {
            if let FSrc::Const(c) = *s {
                used[c as usize] = true;
            }
        }
        // `retain` visits the entries in order, so each kept one learns
        // its new index as it goes.
        let mut remap = vec![0u16; consts.len()];
        let (mut c, mut kept) = (0, 0);
        consts.retain(|_| {
            let keep = used[c];
            if keep {
                remap[c] = kept as u16;
                kept += 1;
            }
            c += 1;
            keep
        });
        for s in self.srcs.iter_mut().chain([&mut output]) {
            if let FSrc::Const(c) = s {
                *c = remap[*c as usize];
            }
        }
        let Emitted { steps, srcs, tys, phys_regs } = self;
        Executable { isa, inputs, consts, steps, srcs, tys, phys_regs, output, out_elem }
    }
}

/// Stage 4's result: every group as an intrusive list headed by its
/// root.
struct Groups {
    /// The root of the group holding each node; a node heads its own
    /// group until a later node absorbs it.
    owner: Vec<usize>,
    /// The next member of the node's group list (`NONE` ends it).
    next: Vec<usize>,
}

impl Groups {
    /// No grouping: every node is its own group.
    fn singletons(graph: &Graph) -> Groups {
        let n = graph.nodes.len();
        Groups { owner: (0..n).collect(), next: vec![NONE; n] }
    }
}

/// Worklist state of stage 4. The per-group fields are stamped with the
/// root being grown, so nothing is cleared between roots.
struct Grouper<'a> {
    graph: &'a Graph,
    /// Distinct live consumers of each node.
    consumers: Vec<u32>,
    owner: Vec<usize>,
    next: Vec<usize>,
    /// Each root's last list member, and its list length.
    tail: Vec<usize>,
    len: Vec<usize>,
    /// How many of a node's consumers are inside the group rooted at
    /// `inside_at`.
    inside: Vec<u32>,
    inside_at: Vec<usize>,
    /// The group's candidates: producers all of whose live consumers are
    /// inside it.
    ready: Vec<usize>,
}

impl<'a> Grouper<'a> {
    fn new(graph: &'a Graph) -> Self {
        let n = graph.nodes.len();
        let mut consumers = vec![0u32; n];
        for i in (0..n).filter(|&i| graph.live[i]) {
            let args = graph.args(i);
            for (k, &a) in args.iter().enumerate() {
                if let Src::Node(j) = a {
                    if !args[..k].contains(&a) {
                        consumers[j] += 1;
                    }
                }
            }
        }
        Grouper {
            graph,
            consumers,
            owner: (0..n).collect(),
            next: vec![NONE; n],
            tail: (0..n).collect(),
            len: vec![1; n],
            inside: vec![0; n],
            inside_at: vec![NONE; n],
            ready: Vec::new(),
        }
    }

    fn run(mut self) -> Groups {
        for i in 0..self.graph.nodes.len() {
            if self.graph.live[i] {
                self.grow(i);
            }
        }
        Groups { owner: self.owner, next: self.next }
    }

    /// Grow the group rooted at `i`: take the highest candidate until
    /// none is left, absorbing each that keeps the group within the step
    /// budget. Absorbing a group exposes only producers below it, so
    /// this visits every candidate once, in descending node order.
    fn grow(&mut self, i: usize) {
        self.join(i, i);
        while let Some(x) = (0..self.ready.len()).max_by_key(|&x| self.ready[x]) {
            let j = self.ready.swap_remove(x);
            if self.len[i] + self.len[j] <= MAX_STEPS {
                self.join(i, j);
            }
        }
    }

    /// Absorb root `j`'s group into `i`'s (`j == i` starts `i`'s group):
    /// splice `j`'s list onto `i`'s, relabel its members, and count them
    /// as consumers of their producers, exposing each producer whose
    /// every consumer is now inside.
    fn join(&mut self, i: usize, j: usize) {
        let graph = self.graph;
        if j != i {
            self.next[self.tail[i]] = j;
            self.tail[i] = self.tail[j];
            self.len[i] += self.len[j];
            let mut m = j;
            while m != NONE {
                self.owner[m] = i;
                m = self.next[m];
            }
        }
        let lanes = graph.nodes[i].ty.lanes;
        let mut m = j;
        while m != NONE {
            let args = graph.args(m);
            for (k, &a) in args.iter().enumerate() {
                let Src::Node(p) = a else { continue };
                if args[..k].contains(&a) || self.owner[p] == i {
                    continue;
                }
                if self.inside_at[p] != i {
                    self.inside_at[p] = i;
                    self.inside[p] = 0;
                }
                self.inside[p] += 1;
                // The program's output is never absorbed: its value must
                // land in a register.
                if self.inside[p] == self.consumers[p]
                    && self.owner[p] == p
                    && graph.out_node() != Some(p)
                    && graph.nodes[p].ty.lanes == lanes
                {
                    self.ready.push(p);
                }
            }
            m = self.next[m];
        }
    }
}

/// Register `r`'s row in the row file.
pub(crate) fn reg_row(r: u16) -> u32 {
    MAX_STEPS as u32 + u32::from(r)
}

/// Stage 5: emit each root's kernel onto the tape, allocating registers
/// by linear scan.
fn emit(graph: Graph, groups: &Groups) -> Result<Executable, ExecError> {
    let nodes = &graph.nodes;
    let owner = &groups.owner;
    let internal = |s: Src, r: usize| matches!(s, Src::Node(p) if owner[p] == r);

    // Each root's members in ascending node order, computed once, and the
    // sizes of the arrays they fill.
    let mut roots: Vec<(usize, Range<usize>)> = Vec::with_capacity(nodes.len());
    let mut member_buf: Vec<usize> = Vec::with_capacity(nodes.len());
    let mut n_srcs = 0;
    for r in (0..nodes.len()).filter(|&r| graph.live[r] && owner[r] == r) {
        let m0 = member_buf.len();
        let mut m = r;
        while m != NONE {
            member_buf.push(m);
            m = groups.next[m];
        }
        // Ascending node ids are dependency order (args always refer to
        // earlier nodes), with the root last.
        member_buf[m0..].sort_unstable();
        n_srcs += member_buf[m0..].iter().map(|&m| graph.args(m).len()).sum::<usize>();
        roots.push((r, m0..member_buf.len()));
    }
    let mut out = Emitted::default();
    out.steps.reserve_exact(member_buf.len());
    out.srcs.reserve_exact(n_srcs);
    out.tys.reserve_exact(n_srcs);

    // Last use of each root, by kernel; the output is used "after the
    // end".
    let mut last_use = vec![NONE; nodes.len()];
    for (t, (r, members)) in roots.iter().enumerate() {
        for &m in &member_buf[members.clone()] {
            for &a in graph.args(m) {
                if let Src::Node(j) = a {
                    if !internal(a, *r) {
                        last_use[j] = t;
                    }
                }
            }
        }
    }
    if let Some(out) = graph.out_node() {
        last_use[out] = roots.len();
    }

    // Each member's index in its kernel: the temp row it writes.
    let mut local = vec![0u32; nodes.len()];
    let mut phys_of: Vec<Option<u16>> = vec![None; nodes.len()];
    let mut free: Vec<u16> = Vec::new();
    let mut next_phys = 0;
    for (t, (r, members)) in roots.iter().enumerate() {
        let (r, group) = (*r, &member_buf[members.clone()]);
        // Allocate the destination BEFORE freeing dying operands: the
        // engine takes the destination row out of the file while the root
        // runs, so the root must never read its own register.
        let dst = match free.pop() {
            Some(d) => d,
            None => {
                let d = index16(next_phys, "physical registers")?;
                next_phys += 1;
                d
            }
        };
        for (x, &m) in group.iter().enumerate() {
            local[m] = x as u32;
            let srcs = graph.args(m).iter().map(|&a| {
                let src = match a {
                    Src::Node(j) if internal(a, r) => FSrc::Row(local[j]),
                    Src::Node(j) => {
                        FSrc::Row(reg_row(phys_of[j].expect("operands are defined before use")))
                    }
                    Src::In(k) => FSrc::In(k),
                    Src::Const(c) => FSrc::Const(c),
                };
                (src, graph.ty(a).elem)
            });
            let row = if m == r { reg_row(dst) } else { local[m] };
            out.push_step(&nodes[m], row, srcs, &graph.consts);
        }
        // Free each dying operand once, in first-use order.
        for &m in group {
            for &a in graph.args(m) {
                if let Src::Node(j) = a {
                    if last_use[j] == t {
                        free.extend(phys_of[j].take());
                    }
                }
            }
        }
        // A result nothing reads is computed for its error semantics and
        // its register is free again at once. Only a REFERENCE link keeps
        // such a node: with fusion, every live node but the output has a
        // live consumer.
        if last_use[r] == NONE {
            free.push(dst);
        } else {
            phys_of[r] = Some(dst);
        }
    }
    out.phys_regs = next_phys;

    let output = match graph.out_src {
        Src::Node(r) => FSrc::Row(reg_row(phys_of[r].expect("the output register stays live"))),
        Src::In(s) => FSrc::In(s),
        Src::Const(c) => FSrc::Const(c),
    };
    let out_elem = graph.ty(graph.out_src).elem;
    Ok(out.assemble(graph, output, out_elem))
}

/// Intern a splat into the pool, deduplicating by type and lane value:
/// stage 1's splats and stage 2's folds share one `index`. Fails when a
/// new entry would not fit a 16-bit pool index; a fold then stays an
/// instruction.
fn intern_const(
    consts: &mut Vec<(VectorType, i128)>,
    index: &mut HashMap<(VectorType, i128), u16>,
    ty: VectorType,
    lane: i128,
) -> Result<u16, ExecError> {
    match index.entry((ty, lane)) {
        Entry::Occupied(e) => Ok(*e.get()),
        Entry::Vacant(e) => {
            let c = index16(consts.len(), "pool constants")?;
            consts.push((ty, lane));
            Ok(*e.insert(c))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::emit;
    use crate::vm::execute;
    use fpir::build;
    use fpir::interp::Env;
    use fpir::rand_expr::{gen_expr, GenConfig};
    use fpir::types::{ScalarType as S, VectorType as V};
    use fpir::RcExpr;
    use fpir_isa::{legalize, target};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The reference stages 4–5: for every node, each round rescans
    /// every earlier node and tests membership with `contains`, until a
    /// round absorbs nothing (quadratic); emission recomputes each
    /// group's external operands per root and finds temp rows with
    /// `position`. [`link`] must match it exactly.
    fn link_rescan(p: &Program, target: &Target) -> Executable {
        let graph = Graph::build(p, target, true).unwrap();
        let (nodes, live) = (&graph.nodes, &graph.live);
        let out_node = graph.out_node();
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for i in (0..nodes.len()).filter(|&i| live[i]) {
            for &a in graph.args(i) {
                if let Src::Node(j) = a {
                    if !consumers[j].contains(&i) {
                        consumers[j].push(i);
                    }
                }
            }
        }
        let mut groups: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
        let mut absorbed = vec![false; nodes.len()];
        for i in 0..nodes.len() {
            let mut g: Vec<usize> = vec![i];
            if live[i] {
                loop {
                    let mut grew = false;
                    for j in (0..i).rev() {
                        if absorbed[j]
                            || !live[j]
                            || g.contains(&j)
                            || out_node == Some(j)
                            || nodes[j].ty.lanes != nodes[i].ty.lanes
                            || !consumers[j].iter().all(|c| g.contains(c))
                        {
                            continue;
                        }
                        let mut cand = g.clone();
                        cand.extend(groups[j].iter().copied());
                        cand.sort_unstable();
                        cand.dedup();
                        if cand.len() <= MAX_STEPS {
                            for &m in &groups[j] {
                                absorbed[m] = true;
                            }
                            g = cand;
                            grew = true;
                        }
                    }
                    if !grew {
                        break;
                    }
                }
            }
            g.sort_unstable();
            groups.push(g);
        }

        let roots: Vec<usize> = (0..nodes.len()).filter(|&i| live[i] && !absorbed[i]).collect();
        let mut last_use = vec![usize::MAX; nodes.len()];
        for (t, &r) in roots.iter().enumerate() {
            for s in external_srcs(&groups[r], &graph) {
                if let Src::Node(j) = s {
                    last_use[j] = t;
                }
            }
        }
        if let Some(root) = out_node {
            last_use[root] = roots.len();
        }
        let mut phys_of: Vec<Option<u16>> = vec![None; nodes.len()];
        let mut free: Vec<u16> = Vec::new();
        let mut next_phys: u16 = 0;
        let mut out = Emitted::default();
        for (t, &r) in roots.iter().enumerate() {
            let g = &groups[r];
            let dst = free.pop().unwrap_or_else(|| {
                let d = next_phys;
                next_phys += 1;
                d
            });
            for &m in g {
                let mut srcs = Vec::new();
                for &a in graph.args(m) {
                    let src = match a {
                        Src::Node(j) if g.contains(&j) => {
                            FSrc::Row(g.iter().position(|&x| x == j).unwrap() as u32)
                        }
                        Src::Node(j) => FSrc::Row(reg_row(phys_of[j].unwrap())),
                        Src::In(k) => FSrc::In(k),
                        Src::Const(c) => FSrc::Const(c),
                    };
                    srcs.push((src, graph.ty(a).elem));
                }
                let row = if m == r {
                    reg_row(dst)
                } else {
                    g.iter().position(|&x| x == m).unwrap() as u32
                };
                out.push_step(&nodes[m], row, srcs, &graph.consts);
            }
            phys_of[r] = Some(dst);
            for s in external_srcs(g, &graph) {
                if let Src::Node(j) = s {
                    if last_use[j] == t {
                        if let Some(ph) = phys_of[j].take() {
                            free.push(ph);
                        }
                    }
                }
            }
        }
        out.phys_regs = next_phys as usize;
        let output = match graph.out_src {
            Src::Node(r) => FSrc::Row(reg_row(phys_of[r].unwrap())),
            Src::In(s) => FSrc::In(s),
            Src::Const(c) => FSrc::Const(c),
        };
        let out_elem = graph.ty(graph.out_src).elem;
        out.assemble(graph, output, out_elem)
    }

    /// The distinct external sources of a group, in first-use order; a
    /// single instruction's operands as listed.
    fn external_srcs(group: &[usize], graph: &Graph) -> Vec<Src> {
        if let [one] = group {
            return graph.args(*one).to_vec();
        }
        let mut ext: Vec<Src> = Vec::new();
        for &m in group {
            for &a in graph.args(m) {
                match a {
                    Src::Node(j) if group.contains(&j) => {}
                    other => {
                        if !ext.contains(&other) {
                            ext.push(other);
                        }
                    }
                }
            }
        }
        ext
    }

    /// The FAST link and the rescan oracle produce the same executable:
    /// steps, operands and listing.
    fn assert_matches_rescan(p: &Program, t: &Target, what: &str) -> Executable {
        let got = link(p, t, &ExecConfig::FAST).unwrap();
        let want = link_rescan(p, t);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        assert_eq!(got.render(), want.render(), "{what}");
        got
    }

    fn program(e: &RcExpr, isa: Isa) -> Program {
        let t = target(isa);
        emit(&legalize(e, t).unwrap(), t).unwrap()
    }

    /// `sum_{k<n} x_k * c_k` as a balanced tree over distinct inputs and
    /// distinct constants.
    fn sum_of_products(n: usize, t: V) -> RcExpr {
        fn sum(terms: &[RcExpr]) -> RcExpr {
            match terms {
                [one] => one.clone(),
                _ => {
                    let (l, r) = terms.split_at(terms.len() / 2);
                    build::add(sum(l), sum(r))
                }
            }
        }
        let terms: Vec<RcExpr> = (0..n)
            .map(|k| build::mul(build::var(&format!("x{k}"), t), build::constant(k as i128 + 2, t)))
            .collect();
        sum(&terms)
    }

    #[test]
    fn optimize_matches_the_rescan_oracle_on_every_workload_artifact() {
        use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads};
        let mut artifacts = 0;
        for wl in all_workloads().into_iter().chain(unrolled_workloads()).chain(extra_workloads()) {
            for isa in fpir::machine::ALL_ISAS {
                let pf = pitchfork::Pitchfork::new(isa);
                let art = pitchfork::compile_to_executable(&pf, &wl.pipeline.expr).unwrap();
                let t = target(isa);
                let p = emit(&art.lowered, t).unwrap();
                let what = format!("{}/{isa}", wl.name());
                let fast = assert_matches_rescan(&p, t, &what);
                // `compile_to_executable` ships exactly this FAST link.
                assert_eq!(art.exe.render(), fast.render(), "{what}");
                artifacts += 1;
            }
        }
        assert_eq!(artifacts, 100);
    }

    /// Pinned FAST-link output: a digest over
    /// [`crate::exec::tests::canonical`] of every workload artifact (the
    /// paper, extra and unrolled kernels on all four ISAs) and of
    /// fixed-seed random expressions, legalized directly and compiled by
    /// Pitchfork. A change to grouping, splat capture, register
    /// allocation or pool order fails here even when
    /// the artifact still runs correctly. When a change is *meant* to
    /// alter fused artifacts, recompute the constant with `cargo test -p
    /// fpir-sim fused_artifacts_match -- --nocapture` and say why.
    #[test]
    fn fused_artifacts_match_the_pinned_digest() {
        use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads};
        use std::hash::Hasher;
        const PINNED_CANONICAL: u64 = 0x732c_fcc0_d5a1_10ce;
        let mut h = fpir::identity::FnvHasher::default();
        let mut fold = |s: &str| {
            h.write(s.as_bytes());
            h.write(b"\n");
        };
        let mut artifacts = 0;
        for isa in fpir::machine::ALL_ISAS {
            let pf = pitchfork::Pitchfork::new(isa);
            for wl in
                all_workloads().into_iter().chain(extra_workloads()).chain(unrolled_workloads())
            {
                // What `compile_to_executable` ships, linked in this crate.
                let lowered = pf.compile(&wl.pipeline.expr).unwrap().lowered;
                let p = emit(&lowered, target(isa)).unwrap();
                let exe = Executable::link_with(&p, target(isa), &ExecConfig::FAST).unwrap();
                fold(&format!("{}/{isa}", wl.name()));
                fold(&crate::exec::tests::canonical(&exe));
                artifacts += 1;
            }
            let t = target(isa);
            for (ti, elem) in [S::U8, S::U16, S::U32, S::I8, S::I16, S::I32].into_iter().enumerate()
            {
                for seed in 0..64 {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let e =
                        gen_expr(&mut rng, &GenConfig { lanes: 8, ..GenConfig::default() }, elem);
                    let lowered = [legalize(&e, t).ok(), pf.compile(&e).ok().map(|c| c.lowered)];
                    for (li, m) in lowered.iter().enumerate() {
                        fold(&format!("gen {ti} {seed} {li}/{isa}"));
                        let Some(m) = m else { continue };
                        let p = emit(m, t).unwrap();
                        match Executable::link_with(&p, t, &ExecConfig::FAST) {
                            Ok(exe) => fold(&crate::exec::tests::canonical(&exe)),
                            Err(err) => fold(&format!("error: {err}")),
                        }
                    }
                }
            }
        }
        assert_eq!(artifacts, 100);
        let h = h.finish();
        println!("fused digest: {h:#018x}");
        assert_eq!(h, PINNED_CANONICAL, "FAST-linked artifacts changed: digest {h:#018x}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On the random expressions of the compile properties, legalized
        /// directly or compiled by Pitchfork, the FAST link matches the
        /// oracle.
        #[test]
        fn optimize_matches_the_rescan_oracle_on_random_expressions(
            seed in any::<u64>(),
            ti in 0usize..6,
        ) {
            let elem = [S::U8, S::U16, S::U32, S::I8, S::I16, S::I32][ti];
            let mut rng = StdRng::seed_from_u64(seed);
            let e = gen_expr(&mut rng, &GenConfig { lanes: 8, ..GenConfig::default() }, elem);
            for isa in fpir::machine::ALL_ISAS {
                let t = target(isa);
                let lowered = [
                    legalize(&e, t).ok(),
                    pitchfork::Pitchfork::new(isa).compile(&e).ok().map(|out| out.lowered),
                ];
                for m in lowered.iter().flatten() {
                    let p = emit(m, t).unwrap();
                    assert_matches_rescan(&p, t, &format!("{e} on {isa}"));
                }
            }
        }
    }

    /// 64 products of distinct inputs and constants: the groups run into
    /// the step budget, so candidates over it are rejected for good.
    #[test]
    fn budget_edges_match_the_rescan_oracle() {
        let t = V::new(S::U16, 8);
        let e = sum_of_products(64, t);
        for isa in fpir::machine::ALL_ISAS {
            let fused = assert_matches_rescan(&program(&e, isa), target(isa), &format!("{isa}"));
            let steps = fused.kernels().map(|k| k.len()).max().unwrap();
            assert!(steps >= MAX_STEPS - 1, "{isa}: {steps} steps\n{fused}");
        }
    }

    /// A diamond: `p` feeds two consumers, so it joins the group only
    /// once both are inside.
    #[test]
    fn diamonds_absorb_their_shared_producer() {
        let t = V::new(S::U8, 16);
        let (a, b) = (build::var("a", t), build::var("b", t));
        let p = build::add(a, b.clone());
        let e = build::absd(build::mul(p.clone(), build::constant(3, t)), build::sub(p, b));
        for isa in fpir::machine::ALL_ISAS {
            let p = program(&e, isa);
            let fused = assert_matches_rescan(&p, target(isa), &format!("{isa}"));
            assert_eq!(fused.op_count(), 1, "{isa}: one kernel\n{p}\n{fused}");
        }
    }

    fn both(e: &RcExpr, isa: Isa) -> (Program, Executable, Executable) {
        let t = target(isa);
        let p = emit(&legalize(e, t).unwrap(), t).unwrap();
        let plain = Executable::link_with(&p, t, &ExecConfig::REFERENCE).unwrap();
        let fused = Executable::link_with(&p, t, &ExecConfig::FAST).unwrap();
        (p, plain, fused)
    }

    /// A sharpening-filter-style chain: widening arithmetic, a constant,
    /// and a saturating narrow — the shape the fuser exists for.
    fn chain_expr(t: V) -> RcExpr {
        build::saturating_cast(
            S::U8,
            build::widening_add(
                build::rounding_halving_add(build::var("a", t), build::var("b", t)),
                build::constant(3, t),
            ),
        )
    }

    #[test]
    fn fused_matches_unfused_and_reference_everywhere() {
        let t = V::new(S::U8, 16);
        let exprs = [
            chain_expr(t),
            build::rounding_halving_add(build::var("a", t), build::var("b", t)),
            build::var("a", t),
            build::constant(7, t),
            build::absd(
                build::add(build::var("a", t), build::constant(1, t)),
                build::mul(build::var("b", t), build::constant(2, t)),
            ),
        ];
        let mut state: i128 = 99;
        for e in &exprs {
            for isa in fpir::machine::ALL_ISAS {
                let (p, plain, fused) = both(e, isa);
                let mk = |seed: i128| {
                    Value::new(t, (0..16).map(|i| (seed * 31 + i * 7) % 256).collect())
                };
                state += 1;
                let env = Env::new().bind("a", mk(state)).bind("b", mk(state + 5));
                let want = execute(&p, &env, target(isa)).unwrap();
                let mut cp = plain.new_ctx();
                let mut cf = fused.new_ctx();
                assert_eq!(plain.run(&mut cp, &env).unwrap(), want, "{isa} plain");
                assert_eq!(fused.run(&mut cf, &env).unwrap(), want, "{isa} fused");
            }
        }
    }

    #[test]
    fn chains_collapse_into_superinstructions() {
        let t = V::new(S::U8, 16);
        for isa in fpir::machine::ALL_ISAS {
            let (_, plain, fused) = both(&chain_expr(t), isa);
            assert!(
                fused.op_count() < plain.op_count(),
                "{isa}: fused {} dispatches vs plain {}\n{fused}",
                fused.op_count(),
                plain.op_count()
            );
            assert!(fused.fused_count() >= 1, "{isa}:\n{fused}");
        }
    }

    #[test]
    fn peak_regs_only_shrinks() {
        let t = V::new(S::U8, 16);
        let exprs = [
            chain_expr(t),
            build::add(
                build::mul(build::var("a", t), build::var("b", t)),
                build::mul(build::var("c", t), build::var("d", t)),
            ),
        ];
        for e in &exprs {
            for isa in fpir::machine::ALL_ISAS {
                let (_, plain, fused) = both(e, isa);
                assert!(
                    fused.peak_regs() <= plain.peak_regs(),
                    "{isa}: {} regs after fusion vs {}",
                    fused.peak_regs(),
                    plain.peak_regs()
                );
            }
        }
    }

    #[test]
    fn all_constant_programs_fold_to_the_pool() {
        let t = V::new(S::U8, 16);
        let e = build::add(build::constant(3, t), build::constant(4, t));
        let (_, plain, fused) = both(&e, Isa::ArmNeon);
        assert!(plain.op_count() >= 1);
        assert_eq!(fused.op_count(), 0, "constants fold away:\n{fused}");
        let env = Env::new();
        let mut ctx = fused.new_ctx();
        assert_eq!(fused.run(&mut ctx, &env).unwrap(), Value::splat(7, t));
    }

    #[test]
    fn fused_binding_errors_are_identical() {
        let t = V::new(S::U8, 16);
        let (p, plain, fused) = both(&chain_expr(t), Isa::ArmNeon);
        // Unbound input, then a mistyped binding: the fused engine must
        // blame the same load (name, position, register) as the plain
        // engine and the reference VM.
        let envs = [
            Env::new().bind("a", Value::splat(1, t)),
            Env::new().bind("a", Value::splat(1, t)).bind("b", Value::splat(1, V::new(S::U16, 16))),
        ];
        for env in &envs {
            let want = execute(&p, env, target(Isa::ArmNeon)).unwrap_err();
            let mut cp = plain.new_ctx();
            let mut cf = fused.new_ctx();
            let ep = plain.run(&mut cp, env).unwrap_err();
            let ef = fused.run(&mut cf, env).unwrap_err();
            assert_eq!(format!("{want:?}"), format!("{ep:?}"));
            assert_eq!(format!("{want:?}"), format!("{ef:?}"));
        }
    }

    /// The fused hot path allocates nothing in steady state either:
    /// intermediates live in the context's scratch rows, the result in a
    /// recycled buffer.
    #[test]
    fn fused_steady_state_runs_are_allocation_free() {
        let (_, _, fused) = both(&chain_expr(V::new(S::U8, 64)), Isa::ArmNeon);
        assert!(fused.fused_count() >= 1, "{fused}");
        crate::exec::tests::assert_steady_state_is_allocation_free(&fused, 7);
    }
}
