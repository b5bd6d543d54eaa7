//! Owner references and the one owner lookup of the SPMD engines.
//!
//! Every statement instance and every aligned or reduction scalar has one
//! home: the owner of the reference it is aligned with. [`Code::new`]
//! resolves each such reference once per program into an [`OwnerRef`],
//! its subscripts compiled into the code. The executor and the node
//! programs find every owner with the lookups here, reading subscripts
//! through their own `Load`. Each keeps its state on its own [`Stack`]:
//! its [`Memo`]s, and the coordinates under evaluation. A lookup may nest
//! (a subscript reading an aligned scalar), so it pushes above its
//! caller's coordinates and truncates back.

use crate::code::{Code, Compiler, Ctx, Fault, Load, Site, Span, Stack};
use crate::guard::Guard;
use crate::lower::SpmdProgram;
use hpf_dist::{dist_owner, ArrayMapping, GridDimRule};
use hpf_ir::interp::InterpError;
use hpf_ir::{ArrayRef, DistFormat, StmtId, Value, VarId};

/// How one grid coordinate of an owner reference is found at run time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DimRule {
    /// Every coordinate: a replicated, privatized or freed dimension.
    Any,
    At(usize),
    /// Distribution owner of the template position of a subscript
    /// (compiled subscript code).
    Sub {
        sub: Span,
        dist: DistFormat,
        stride: i64,
        offset: i64,
        t_lo: i64,
        t_extent: i64,
    },
}

/// An owner reference resolved against its array's mapping once per
/// program: one [`DimRule`] per grid dimension, stored in
/// [`Owners::dim_rules`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct OwnerRef {
    pub(crate) array: VarId,
    pub(crate) dims: Span,
    /// No grid dimension is free: the owner is one pid for every reader.
    pub(crate) pinned: bool,
    /// Index of its [`Memo`] when its subscripts read nothing but scalars
    /// from the reader's own copy.
    pub(crate) memo: Option<u32>,
}

/// The owner an [`OwnerRef`] last resolved to. Its subscripts read only
/// scalars from the reader's own copy (no element, no fetch), so equal
/// values of those scalars give equal coordinates: a lookup that finds
/// them unchanged reuses the owner, whatever wrote them in between.
#[derive(Debug, Clone)]
pub(crate) struct Memo {
    /// The scalars the subscripts read.
    reads: Vec<VarId>,
    /// Their values when `found` was resolved.
    vals: Vec<Value>,
    /// (reader, owner pid) last resolved; any reader may reuse it when
    /// the reference is pinned.
    found: Option<(usize, usize)>,
}

impl Memo {
    /// The owner last found for `reader` (for any reader when `pinned`),
    /// if the scalars `l` reads still hold the values it was found with.
    #[inline]
    fn hit(&self, l: &mut impl Load, reader: usize, pinned: bool) -> Option<usize> {
        let (r, src) = self.found?;
        let mut same = |(&v, &x): (&VarId, &Value)| l.own(v) == x;
        ((pinned || r == reader) && self.reads.iter().zip(&self.vals).all(&mut same))
            .then_some(src)
    }

    /// Remember `src` as the owner found for `reader` with the values of
    /// the scalars `l` reads.
    fn remember(&mut self, l: &mut impl Load, reader: usize, src: usize) {
        self.vals.clear();
        self.vals.extend(self.reads.iter().map(|&v| l.own(v)));
        self.found = Some((reader, src));
    }
}

/// The owner tables of a program, their subscripts compiled into its
/// [`Code`].
#[derive(Debug, Default)]
pub(crate) struct Owners {
    /// By `StmtId`: the guard's owner reference, `None` for every pid.
    guards: Vec<Option<OwnerRef>>,
    /// By `VarId`: the owner of an aligned or reduction scalar's target,
    /// `None` for a scalar read from the reader's own copy.
    scalar_owner: Vec<Option<OwnerRef>>,
    /// Flat storage of every [`OwnerRef`]'s per-dimension rules.
    dim_rules: Vec<DimRule>,
    /// One per memoized reference, as an engine starts with them.
    memos: Vec<Memo>,
    /// By `StmtId`: the (scalar, op index) pairs a scalar fetch issued by
    /// the statement resolves to; the first match wins.
    scalar_ops: Vec<Vec<(VarId, usize)>>,
    /// By `VarId`: the mapping of each array.
    maps: Vec<Option<ArrayMapping>>,
}

impl Code {
    /// The owner of aligned or reduction scalar `v`'s target; `None` for a
    /// scalar every rank reads from its own copy.
    pub(crate) fn scalar_owner(&self, v: VarId) -> Option<OwnerRef> {
        self.owners.scalar_owner[v.index()]
    }

    /// The communication operation a fetch of scalar `v` by statement `s`
    /// belongs to.
    pub(crate) fn scalar_op(&self, s: StmtId, v: VarId) -> Option<usize> {
        self.owners.scalar_ops[s.index()]
            .iter()
            .find(|&&(w, _)| w == v)
            .map(|&(_, i)| i)
    }

    /// An engine's evaluation stack, with the memos it starts with.
    pub(crate) fn stack(&self) -> Stack {
        let mut st = Stack::default();
        st.memos = self.owners.memos.clone();
        st
    }

    /// The pid `reader` takes element `idx` of `site`'s array from.
    pub(crate) fn elem_owner(&self, site: &Site, idx: &[i64], reader: usize) -> usize {
        let mapping = self.owners.maps[site.array.index()].as_ref();
        mapping.expect("mapped array").owner_pid(&self.grid, idx, reader)
    }

    /// Fill `out` with the pids executing statement `s` under its guard,
    /// ascending; its subscripts are read through `l`.
    pub(crate) fn guard_pids<L: Load>(
        &self,
        s: StmtId,
        l: &mut L,
        st: &mut Stack,
        out: &mut Vec<usize>,
    ) -> Result<(), Fault> {
        out.clear();
        let grid = &self.grid;
        let Some(own) = self.owners.guards[s.index()] else {
            out.extend(grid.pids());
            return Ok(());
        };
        if own.pinned {
            out.push(self.owner_pid(own, 0, l, st)?);
            return Ok(());
        }
        let base = self.owner_coords(own, l, st)?;
        let coords = &st.coords[base..];
        out.extend(
            grid.pids()
                .filter(|&p| grid.resolve_with(p, |d| coords[d]) == p),
        );
        st.coords.truncate(base);
        Ok(())
    }

    /// The pid `reader` takes a value owned per `own` from; its subscripts
    /// are read through `l`.
    pub(crate) fn owner_pid<L: Load>(
        &self,
        own: OwnerRef,
        reader: usize,
        l: &mut L,
        st: &mut Stack,
    ) -> Result<usize, Fault> {
        if let Some(m) = own.memo {
            if let Some(src) = st.memos[m as usize].hit(l, reader, own.pinned) {
                return Ok(src);
            }
        }
        let base = self.owner_coords(own, l, st)?;
        let coords = &st.coords[base..];
        let src = self.grid.resolve_with(reader, |d| coords[d]);
        st.coords.truncate(base);
        if let Some(m) = own.memo {
            st.memos[m as usize].remember(l, reader, src);
        }
        Ok(src)
    }

    /// Push the owner coordinates of `own` onto `st.coords`, one per grid
    /// dimension (`None` where every coordinate holds a copy), evaluating
    /// the pinned dimensions' subscripts through `l`; returns where they
    /// start.
    fn owner_coords<L: Load>(&self, own: OwnerRef, l: &mut L, st: &mut Stack) -> Result<usize, Fault> {
        let base = st.coords.len();
        for (g, k) in own.dims.range().enumerate() {
            let c = match self.owners.dim_rules[k] {
                DimRule::Any => None,
                DimRule::At(c) => Some(c),
                DimRule::Sub {
                    sub,
                    dist,
                    stride,
                    offset,
                    t_lo,
                    t_extent,
                } => {
                    let x = self.eval_int(sub, l, st)?;
                    let pos0 = stride * x + offset - t_lo;
                    if pos0 < 0 || pos0 >= t_extent {
                        return Err(InterpError::OutOfBounds {
                            array: self.names[own.array.index()].clone(),
                            index: vec![x],
                        }
                        .into());
                    }
                    Some(dist_owner(dist, pos0, t_extent, self.grid.extent(g)))
                }
            };
            st.coords.push(c);
        }
        Ok(base)
    }
}

/// Build the owner tables of `sp`, compiling their subscripts with `cc`.
pub(crate) fn owner_tables<'s>(sp: &'s SpmdProgram, cc: &mut Compiler<'s>) -> Owners {
    let p = &sp.program;
    let mut refs = OwnerRefs {
        sp,
        dim_rules: Vec::new(),
        memoized: Vec::new(),
        memos: Vec::new(),
    };
    let guards = (0..p.num_stmts())
        .map(|s| {
            let s = StmtId(s as u32);
            match sp.guard(s) {
                Guard::Everyone | Guard::Union => None,
                Guard::OwnerOf { r, free_dims } => Some(refs.get(cc, Ctx::of(s), r, free_dims)),
            }
        })
        .collect();
    let scalar_owner = (0..p.vars.len())
        .map(|v| {
            let (target, free) = sp.scalar_target(VarId(v as u32))?;
            Some(refs.get(cc, Ctx::SHARED, target, free))
        })
        .collect();
    Owners {
        guards,
        scalar_owner,
        dim_rules: refs.dim_rules,
        memos: refs.memos,
        scalar_ops: (0..p.num_stmts()).map(|s| cc.scalar_ops(s)).collect(),
        maps: (0..p.vars.len())
            .map(|v| sp.maps.get(VarId(v as u32)).cloned())
            .collect(),
    }
}

/// Builds the owner references.
struct OwnerRefs<'s> {
    sp: &'s SpmdProgram,
    dim_rules: Vec<DimRule>,
    /// The memoized references built so far, by target and free
    /// dimensions.
    memoized: Vec<(&'s ArrayRef, &'s [usize], OwnerRef)>,
    memos: Vec<Memo>,
}

impl<'s> OwnerRefs<'s> {
    /// The owner reference of `r` with the grid dimensions in `free` left
    /// unconstrained (reduction mapping): one [`DimRule`] per grid
    /// dimension, its subscripts compiled in `cx`. A memoized reference's
    /// code reads no element and fetches nothing, so it does not depend
    /// on the statement: equal targets share it, and so its memo.
    fn get(
        &mut self,
        cc: &mut Compiler<'s>,
        cx: Ctx,
        r: &'s ArrayRef,
        free: &'s [usize],
    ) -> OwnerRef {
        let same = |&&(t, f, _): &&(&ArrayRef, &[usize], OwnerRef)| t == r && f == free;
        if let Some(&(.., own)) = self.memoized.iter().find(same) {
            return own;
        }
        let sp = self.sp;
        let start = self.dim_rules.len();
        let mut reads = Some(Vec::new());
        for (g, rule) in sp.maps.of(r.array).rules.iter().enumerate() {
            self.dim_rules.push(if free.contains(&g) {
                DimRule::Any
            } else {
                match rule {
                    GridDimRule::ByDim {
                        array_dim,
                        dist,
                        stride,
                        offset,
                        t_lo,
                        t_extent,
                    } => {
                        let sub = cc.subscript(cx, &r.subs[*array_dim]);
                        reads = reads.zip(cc.scalar_reads(sub)).map(|(mut all, more)| {
                            all.extend(more);
                            all
                        });
                        DimRule::Sub {
                            sub,
                            dist: *dist,
                            stride: *stride,
                            offset: *offset,
                            t_lo: *t_lo,
                            t_extent: *t_extent,
                        }
                    }
                    GridDimRule::Fixed(c) => DimRule::At(*c),
                    GridDimRule::Replicated | GridDimRule::Private => DimRule::Any,
                }
            });
        }
        // Only a scalar without an owner is read from the reader's copy.
        let reads = reads.filter(|vs| vs.iter().all(|&v| sp.scalar_target(v).is_none()));
        let own = OwnerRef {
            array: r.array,
            dims: Span {
                start: start as u32,
                end: self.dim_rules.len() as u32,
            },
            pinned: !self.dim_rules[start..]
                .iter()
                .any(|d| matches!(d, DimRule::Any)),
            memo: reads.map(|reads| {
                self.memos.push(Memo {
                    reads,
                    vals: Vec::new(),
                    found: None,
                });
                self.memos.len() as u32 - 1
            }),
        };
        if own.memo.is_some() {
            self.memoized.push((r, free, own));
        }
        own
    }
}
