//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every forward operation as a node in a flat arena;
//! [`Var`] is a cheap handle into that arena. Calling [`Var::backward`] seeds
//! the output gradient and walks the arena in reverse, accumulating gradients
//! into parents and, for parameter leaves, into the shared [`Param`] storage
//! so optimizers can step them.
//!
//! The training loops in this workspace build a fresh tape per forward pass,
//! which keeps parameter lifetimes independent of any particular pass.
//!
//! A pass that never runs backward (encoding, generation, detached decodes)
//! runs on [`Tape::inference`] instead. Its ops compute their values with the
//! same code, but the tape records nothing for backward and counts the live
//! [`Var`] handles of each node: when the last one drops, the node's value is
//! dropped too, so its buffer goes back to the pool mid-pass and the pass
//! peaks at what its live handles hold rather than at every intermediate it
//! ever made (DESIGN.md §10).

use crate::error::{nn_panic, NnError, ShapeError};
use crate::kernels::FusedAct;
use crate::params::Param;
use crate::sparse::{BlockDiagCsr, Csr};
use crate::Matrix;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Numerical floor used by `ln` / `sqrt` style ops.
const EPS: f32 = 1e-8;

enum Op {
    /// Constant leaf (no gradient flows past it).
    Leaf,
    /// Trainable parameter leaf; backward accumulates into the handle.
    Param(Param),
    MatMul(usize, usize),
    /// Sparse constant times dense variable; stores the operator and its
    /// transpose for the backward pass.
    SpMM(#[allow(dead_code)] Arc<Csr>, Arc<Csr>, usize),
    /// Fused `act(S·X + b)`: one node, one pass over the output
    /// (DESIGN.md §13). The saved output doubles as the activation mask for
    /// backward; `blocks` carries block-diagonal row offsets in the batched
    /// form so the bias gradient reduces per block (bitwise equal to `k`
    /// independent calls).
    SpmmBiasAct {
        op_t: Arc<Csr>,
        x: usize,
        bias: Option<usize>,
        act: FusedAct,
        blocks: Option<Arc<Vec<usize>>>,
    },
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    /// `X + broadcast(row)`: parent 0 is `n x d`, parent 1 is `1 x d`.
    AddRowBroadcast(usize, usize),
    /// `broadcast(row)` to `n` rows; parent is `1 x d`.
    BroadcastRow(usize),
    Scale(usize, f32),
    AddScalar(usize, #[allow(dead_code)] f32),
    Relu(usize),
    Sigmoid(usize),
    Tanh(usize),
    Exp(usize),
    Ln(usize),
    Sqrt(usize),
    SoftmaxRows(usize),
    Transpose(usize),
    ConcatCols(Vec<usize>),
    ConcatRows(Vec<usize>),
    /// Column-wise mean over rows, producing `1 x d`.
    MeanRows(usize),
    SumAll(usize),
    MeanAll(usize),
    GatherRows(usize, Arc<Vec<usize>>),
    /// Per-row L2 normalization scaled by `s` (PairNorm's scale-individually
    /// step).
    RowL2Normalize(usize, f32),
    /// Numerically stable mean binary cross-entropy with logits against a
    /// constant target, with optional per-element weights.
    BceWithLogitsMean(usize, Arc<Matrix>, Option<Arc<Matrix>>),
    /// Mean squared error against a constant target.
    MseMean(usize, Arc<Matrix>),
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// An autodiff recording arena. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Tape {
    inner: Rc<TapeInner>,
}

struct TapeInner {
    nodes: RefCell<Vec<Node>>,
    /// Live [`Var`] handles per node, on an inference tape only. A training
    /// tape counts nothing: backward needs every node until the tape drops.
    handles: Option<RefCell<Vec<usize>>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty training tape: every node lives until the tape
    /// drops, so [`Var::backward`] can walk them all.
    pub fn new() -> Self {
        Tape::with_handles(None)
    }

    /// Creates an empty forward-only tape. Ops compute exactly what they
    /// compute on [`Tape::new`], but nothing is recorded for backward, and a
    /// node's value is released as soon as no [`Var`] refers to it.
    /// [`Var::try_backward`] on it returns [`NnError::InferenceTape`].
    pub fn inference() -> Self {
        Tape::with_handles(Some(RefCell::new(Vec::new())))
    }

    fn with_handles(handles: Option<RefCell<Vec<usize>>>) -> Self {
        Tape {
            inner: Rc::new(TapeInner {
                nodes: RefCell::new(Vec::new()),
                handles,
            }),
        }
    }

    /// Appends a node. `op` is built only on a training tape, so an
    /// inference tape never pays for what only backward reads (an
    /// operator's transpose, index lists, loss targets).
    fn push(&self, value: Matrix, op: impl FnOnce() -> Op) -> Var {
        let op = match &self.inner.handles {
            None => op(),
            Some(handles) => {
                handles.borrow_mut().push(1);
                Op::Leaf
            }
        };
        let mut nodes = self.inner.nodes.borrow_mut();
        nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var {
            tape: self.clone(),
            idx: nodes.len() - 1,
        }
    }

    /// Records a constant (gradient does not flow into it).
    pub fn constant(&self, value: Matrix) -> Var {
        self.push(value, || Op::Leaf)
    }

    /// Records a scalar constant as a 1x1 matrix.
    pub fn scalar(&self, v: f32) -> Var {
        self.constant(Matrix::scalar(v))
    }

    /// Records a trainable parameter; backward accumulates into `param`.
    pub fn param(&self, param: &Param) -> Var {
        let value = param.value();
        self.push(value, || Op::Param(param.clone()))
    }

    /// Number of recorded nodes (released ones included).
    pub fn len(&self) -> usize {
        self.inner.nodes.borrow().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.nodes.borrow().is_empty()
    }
}

/// A handle to a node on a [`Tape`]. On an inference tape each handle
/// counts: the node's value is released when the last one drops.
pub struct Var {
    tape: Tape,
    idx: usize,
}

impl Clone for Var {
    fn clone(&self) -> Self {
        if let Some(handles) = &self.tape.inner.handles {
            handles.borrow_mut()[self.idx] += 1;
        }
        Var {
            tape: self.tape.clone(),
            idx: self.idx,
        }
    }
}

impl Drop for Var {
    fn drop(&mut self) {
        let Some(handles) = &self.tape.inner.handles else {
            return;
        };
        // A drop never panics. No op drops a handle while it holds the
        // counts or the arena: each borrows them only to compute a value,
        // and its operands outlive that borrow. Were either ever borrowed
        // here, the value would simply stay until the tape drops.
        let last = handles.try_borrow_mut().is_ok_and(|mut handles| {
            handles.get_mut(self.idx).is_some_and(|count| {
                *count = count.saturating_sub(1);
                *count == 0
            })
        });
        if !last {
            return;
        }
        let released = match self.tape.inner.nodes.try_borrow_mut() {
            Ok(mut nodes) => nodes
                .get_mut(self.idx)
                .map(|node| std::mem::replace(&mut node.value, Matrix::empty())),
            Err(_) => None,
        };
        // Dropped after the borrow ends: the buffer goes back to the pool.
        drop(released);
    }
}

impl Var {
    /// Checks that `other` lives on the same tape as `self`.
    fn same_tape(&self, other: &Var, op: &'static str) -> Result<(), NnError> {
        if !Rc::ptr_eq(&self.tape.inner, &other.tape.inner) {
            return Err(NnError::TapeMismatch { op });
        }
        Ok(())
    }

    /// Clones the current value of this node.
    pub fn value(&self) -> Matrix {
        self.tape.inner.nodes.borrow()[self.idx].value.clone()
    }

    /// This node's value, moved off the tape when this is the last handle on
    /// an inference tape (the release would drop it anyway), else cloned.
    /// Either way the bits are those [`Var::value`] returns.
    pub fn into_value(self) -> Matrix {
        if let Some(handles) = &self.tape.inner.handles {
            if handles.borrow()[self.idx] == 1 {
                let mut nodes = self.tape.inner.nodes.borrow_mut();
                return std::mem::replace(&mut nodes[self.idx].value, Matrix::empty());
            }
        }
        self.value()
    }

    /// Shape of this node's value.
    pub fn shape(&self) -> (usize, usize) {
        self.tape.inner.nodes.borrow()[self.idx].value.shape()
    }

    /// Scalar value of a 1x1 node.
    pub fn item(&self) -> f32 {
        self.tape.inner.nodes.borrow()[self.idx].value.item()
    }

    /// Clones the accumulated gradient of this node (zeros if backward has
    /// not reached it).
    pub fn grad(&self) -> Matrix {
        let nodes = self.tape.inner.nodes.borrow();
        let node = &nodes[self.idx];
        node.grad
            .as_ref()
            .cloned()
            .unwrap_or_else(|| Matrix::zeros(node.value.rows(), node.value.cols()))
    }

    /// Matrix product.
    pub fn matmul(&self, other: &Var) -> Var {
        self.try_matmul(other).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Var::matmul`]: rejects cross-tape operands and
    /// inner-dimension mismatches.
    pub fn try_matmul(&self, other: &Var) -> Result<Var, NnError> {
        self.same_tape(other, "matmul")?;
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            nodes[self.idx].value.try_matmul(&nodes[other.idx].value)?
        };
        Ok(self.tape.push(value, || Op::MatMul(self.idx, other.idx)))
    }

    /// Sparse constant times this variable: `s * self`. The backward
    /// operator `sᵀ` comes from the matrix's memoized transpose
    /// ([`Csr::transpose_cached`]), so repeated forwards on the same
    /// adjacency share one transpose instead of rebuilding it per call.
    pub fn spmm(&self, s: &Arc<Csr>) -> Var {
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            s.matmul_dense(&nodes[self.idx].value)
        };
        self.tape.push(value, || {
            Op::SpMM(Arc::clone(s), s.transpose_cached(), self.idx)
        })
    }

    /// Fused `act(s * self + bias)` in a single tape node: the forward is
    /// one pass over the output ([`Csr::matmul_dense_bias_act`]), and the
    /// backward derives the activation mask from the saved output, so the
    /// op is bit-identical to the composed
    /// `spmm → add_row_broadcast → act` chain at every thread count.
    ///
    /// `bias` must be a `1 x cols` row on the same tape (or `None`).
    pub fn spmm_bias_act(&self, s: &Arc<Csr>, bias: Option<&Var>, act: FusedAct) -> Var {
        self.try_spmm_bias_act(s, bias, act)
            .unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Var::spmm_bias_act`]: rejects cross-tape or mis-shaped
    /// bias rows.
    pub fn try_spmm_bias_act(
        &self,
        s: &Arc<Csr>,
        bias: Option<&Var>,
        act: FusedAct,
    ) -> Result<Var, NnError> {
        self.spmm_bias_act_with(s, || s.transpose_cached(), bias, act, None)
    }

    /// Batched [`Var::spmm_bias_act`] over a [`BlockDiagCsr`]: one fused
    /// call covers every block, reusing the batch's cached transpose, and
    /// the bias gradient reduces per block so results stay bitwise equal to
    /// `k` independent per-block calls.
    pub fn spmm_bias_act_batched(
        &self,
        batch: &BlockDiagCsr,
        bias: Option<&Var>,
        act: FusedAct,
    ) -> Var {
        self.try_spmm_bias_act_batched(batch, bias, act)
            .unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Var::spmm_bias_act_batched`].
    pub fn try_spmm_bias_act_batched(
        &self,
        batch: &BlockDiagCsr,
        bias: Option<&Var>,
        act: FusedAct,
    ) -> Result<Var, NnError> {
        self.spmm_bias_act_with(
            batch.op(),
            || Arc::clone(batch.op_t()),
            bias,
            act,
            Some(Arc::clone(batch.offsets())),
        )
    }

    fn spmm_bias_act_with(
        &self,
        s: &Arc<Csr>,
        st: impl FnOnce() -> Arc<Csr>,
        bias: Option<&Var>,
        act: FusedAct,
        blocks: Option<Arc<Vec<usize>>>,
    ) -> Result<Var, NnError> {
        if let Some(b) = bias {
            self.same_tape(b, "spmm_bias_act")?;
        }
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            let x = &nodes[self.idx].value;
            if let Some(b) = bias {
                let r = &nodes[b.idx].value;
                if r.rows() != 1 || r.cols() != x.cols() {
                    return Err(ShapeError::new(
                        "spmm_bias_act",
                        format!("1x{} bias row", x.cols()),
                        format!("{:?}", r.shape()),
                    )
                    .into());
                }
            }
            let bm = bias.map(|b| &nodes[b.idx].value);
            s.matmul_dense_bias_act(x, bm, act)
        };
        Ok(self.tape.push(value, || Op::SpmmBiasAct {
            op_t: st(),
            x: self.idx,
            bias: bias.map(|b| b.idx),
            act,
            blocks,
        }))
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Var) -> Var {
        self.try_add(other).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Var::add`]: rejects cross-tape operands and shape mismatches.
    pub fn try_add(&self, other: &Var) -> Result<Var, NnError> {
        self.same_tape(other, "add")?;
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            nodes[self.idx]
                .value
                .try_zip(&nodes[other.idx].value, |a, b| a + b)?
        };
        Ok(self.tape.push(value, || Op::Add(self.idx, other.idx)))
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Var) -> Var {
        self.try_sub(other).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Var::sub`]: rejects cross-tape operands and shape mismatches.
    pub fn try_sub(&self, other: &Var) -> Result<Var, NnError> {
        self.same_tape(other, "sub")?;
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            nodes[self.idx]
                .value
                .try_zip(&nodes[other.idx].value, |a, b| a - b)?
        };
        Ok(self.tape.push(value, || Op::Sub(self.idx, other.idx)))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Var) -> Var {
        self.try_mul(other).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Var::mul`]: rejects cross-tape operands and shape mismatches.
    pub fn try_mul(&self, other: &Var) -> Result<Var, NnError> {
        self.same_tape(other, "mul")?;
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            nodes[self.idx]
                .value
                .try_zip(&nodes[other.idx].value, |a, b| a * b)?
        };
        Ok(self.tape.push(value, || Op::Mul(self.idx, other.idx)))
    }

    /// Adds a `1 x d` row vector to every row of this `n x d` variable.
    pub fn add_row_broadcast(&self, row: &Var) -> Var {
        self.try_add_row_broadcast(row)
            .unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Var::add_row_broadcast`]: `row` must be `1 x d` on the same
    /// tape, matching this variable's width.
    pub fn try_add_row_broadcast(&self, row: &Var) -> Result<Var, NnError> {
        self.same_tape(row, "add_row_broadcast")?;
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            let x = &nodes[self.idx].value;
            let r = &nodes[row.idx].value;
            if r.rows() != 1 || r.cols() != x.cols() {
                return Err(ShapeError::new(
                    "add_row_broadcast",
                    format!("1x{} row vector", x.cols()),
                    format!("{:?}", r.shape()),
                )
                .into());
            }
            let mut out = x.clone();
            for i in 0..out.rows() {
                let or = out.row_mut(i);
                for (o, &b) in or.iter_mut().zip(r.row(0)) {
                    *o += b;
                }
            }
            out
        };
        Ok(self
            .tape
            .push(value, || Op::AddRowBroadcast(self.idx, row.idx)))
    }

    /// Broadcasts this `1 x d` row vector to `n` rows.
    pub fn broadcast_row(&self, n: usize) -> Var {
        self.try_broadcast_row(n).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Var::broadcast_row`]: this variable must be a `1 x d` row
    /// vector.
    pub fn try_broadcast_row(&self, n: usize) -> Result<Var, NnError> {
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            let r = &nodes[self.idx].value;
            if r.rows() != 1 {
                return Err(ShapeError::new(
                    "broadcast_row",
                    "a 1-row vector",
                    format!("{:?}", r.shape()),
                )
                .into());
            }
            let mut out = Matrix::zeros(n, r.cols());
            for i in 0..n {
                out.row_mut(i).copy_from_slice(r.row(0));
            }
            out
        };
        Ok(self.tape.push(value, || Op::BroadcastRow(self.idx)))
    }

    /// Multiplies by a compile-time scalar.
    pub fn scale(&self, c: f32) -> Var {
        let value = self.tape.inner.nodes.borrow()[self.idx]
            .value
            .map(|v| v * c);
        self.tape.push(value, || Op::Scale(self.idx, c))
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, c: f32) -> Var {
        let value = self.tape.inner.nodes.borrow()[self.idx]
            .value
            .map(|v| v + c);
        self.tape.push(value, || Op::AddScalar(self.idx, c))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let value = self.tape.inner.nodes.borrow()[self.idx]
            .value
            .map(|v| v.max(0.0));
        self.tape.push(value, || Op::Relu(self.idx))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let value = self.tape.inner.nodes.borrow()[self.idx]
            .value
            .map(|v| 1.0 / (1.0 + (-v).exp()));
        self.tape.push(value, || Op::Sigmoid(self.idx))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let value = self.tape.inner.nodes.borrow()[self.idx]
            .value
            .map(f32::tanh);
        self.tape.push(value, || Op::Tanh(self.idx))
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        let value = self.tape.inner.nodes.borrow()[self.idx].value.map(f32::exp);
        self.tape.push(value, || Op::Exp(self.idx))
    }

    /// Elementwise natural log of `x + EPS`.
    pub fn ln(&self) -> Var {
        let value = self.tape.inner.nodes.borrow()[self.idx]
            .value
            .map(|v| (v + EPS).ln());
        self.tape.push(value, || Op::Ln(self.idx))
    }

    /// Elementwise square root of `max(x, EPS)`.
    pub fn sqrt(&self) -> Var {
        let value = self.tape.inner.nodes.borrow()[self.idx]
            .value
            .map(|v| v.max(EPS).sqrt());
        self.tape.push(value, || Op::Sqrt(self.idx))
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        self.mul(self)
    }

    /// Row-wise softmax, row-blocked across the pool (each row normalizes
    /// independently via the explicit 8-lane [`crate::kernels::softmax_row`]
    /// kernel, so the result is thread-count independent).
    pub fn softmax_rows(&self) -> Var {
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            let x = &nodes[self.idx].value;
            let mut out = x.clone();
            let d = out.cols();
            if d > 0 {
                let block = cpgan_parallel::items_per_chunk(d);
                cpgan_parallel::par_chunks_mut(out.as_mut_slice(), block * d, |_, chunk| {
                    for row in chunk.chunks_mut(d) {
                        crate::kernels::softmax_row(row);
                    }
                });
            }
            out
        };
        self.tape.push(value, || Op::SoftmaxRows(self.idx))
    }

    /// Transpose.
    pub fn transpose(&self) -> Var {
        let value = self.tape.inner.nodes.borrow()[self.idx].value.transpose();
        self.tape.push(value, || Op::Transpose(self.idx))
    }

    /// Horizontal concatenation (same row counts).
    pub fn concat_cols(parts: &[Var]) -> Var {
        Var::try_concat_cols(parts).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Var::concat_cols`]: rejects zero parts, cross-tape parts
    /// and row-count mismatches.
    pub fn try_concat_cols(parts: &[Var]) -> Result<Var, NnError> {
        let Some(first) = parts.first() else {
            return Err(ShapeError::new("concat_cols", "at least one part", "0 parts").into());
        };
        let tape = first.tape.clone();
        for p in parts {
            first.same_tape(p, "concat_cols")?;
        }
        let value = {
            let nodes = tape.inner.nodes.borrow();
            let rows = nodes[first.idx].value.rows();
            let total: usize = parts.iter().map(|p| nodes[p.idx].value.cols()).sum();
            let mut out = Matrix::zeros(rows, total);
            let mut col0 = 0;
            for p in parts {
                let v = &nodes[p.idx].value;
                if v.rows() != rows {
                    return Err(ShapeError::new(
                        "concat_cols",
                        format!("{rows} rows in every part"),
                        format!("{:?}", v.shape()),
                    )
                    .into());
                }
                for r in 0..rows {
                    out.row_mut(r)[col0..col0 + v.cols()].copy_from_slice(v.row(r));
                }
                col0 += v.cols();
            }
            out
        };
        Ok(tape.push(value, || {
            Op::ConcatCols(parts.iter().map(|p| p.idx).collect())
        }))
    }

    /// Vertical concatenation (same column counts).
    pub fn concat_rows(parts: &[Var]) -> Var {
        Var::try_concat_rows(parts).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Var::concat_rows`]: rejects zero parts, cross-tape parts
    /// and column-count mismatches.
    pub fn try_concat_rows(parts: &[Var]) -> Result<Var, NnError> {
        let Some(first) = parts.first() else {
            return Err(ShapeError::new("concat_rows", "at least one part", "0 parts").into());
        };
        let tape = first.tape.clone();
        for p in parts {
            first.same_tape(p, "concat_rows")?;
        }
        let value = {
            let nodes = tape.inner.nodes.borrow();
            let cols = nodes[first.idx].value.cols();
            let total: usize = parts.iter().map(|p| nodes[p.idx].value.rows()).sum();
            let mut out = Matrix::zeros(total, cols);
            let mut row0 = 0;
            for p in parts {
                let v = &nodes[p.idx].value;
                if v.cols() != cols {
                    return Err(ShapeError::new(
                        "concat_rows",
                        format!("{cols} cols in every part"),
                        format!("{:?}", v.shape()),
                    )
                    .into());
                }
                for r in 0..v.rows() {
                    out.row_mut(row0 + r).copy_from_slice(v.row(r));
                }
                row0 += v.rows();
            }
            out
        };
        Ok(tape.push(value, || {
            Op::ConcatRows(parts.iter().map(|p| p.idx).collect())
        }))
    }

    /// Column-wise mean over rows (`n x d -> 1 x d`).
    pub fn mean_rows(&self) -> Var {
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            let x = &nodes[self.idx].value;
            let n = x.rows().max(1);
            let mut out = Matrix::zeros(1, x.cols());
            for r in 0..x.rows() {
                for (o, &v) in out.row_mut(0).iter_mut().zip(x.row(r)) {
                    *o += v;
                }
            }
            for o in out.as_mut_slice() {
                *o /= n as f32;
            }
            out
        };
        self.tape.push(value, || Op::MeanRows(self.idx))
    }

    /// Sum of all elements (scalar node).
    pub fn sum_all(&self) -> Var {
        let value = Matrix::scalar(self.tape.inner.nodes.borrow()[self.idx].value.sum());
        self.tape.push(value, || Op::SumAll(self.idx))
    }

    /// Mean of all elements (scalar node).
    pub fn mean_all(&self) -> Var {
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            let x = &nodes[self.idx].value;
            Matrix::scalar(x.sum() / x.len().max(1) as f32)
        };
        self.tape.push(value, || Op::MeanAll(self.idx))
    }

    /// Selects rows by index (duplicates allowed); backward scatter-adds.
    pub fn gather_rows(&self, indices: &Arc<Vec<usize>>) -> Var {
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            let x = &nodes[self.idx].value;
            let mut out = Matrix::zeros(indices.len(), x.cols());
            for (r, &i) in indices.iter().enumerate() {
                out.row_mut(r).copy_from_slice(x.row(i));
            }
            out
        };
        self.tape
            .push(value, || Op::GatherRows(self.idx, Arc::clone(indices)))
    }

    /// Per-row L2 normalization scaled by `s`: `y_i = s * x_i / ||x_i||`.
    pub fn row_l2_normalize(&self, s: f32) -> Var {
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            let x = &nodes[self.idx].value;
            let mut out = x.clone();
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(EPS);
                for v in row.iter_mut() {
                    *v *= s / norm;
                }
            }
            out
        };
        self.tape.push(value, || Op::RowL2Normalize(self.idx, s))
    }

    /// Mean binary cross-entropy with logits against a constant target,
    /// optionally weighted per element (weights need not be normalized).
    pub fn bce_with_logits_mean(&self, target: &Arc<Matrix>, weight: Option<&Arc<Matrix>>) -> Var {
        self.try_bce_with_logits_mean(target, weight)
            .unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Var::bce_with_logits_mean`]: the target (and weight, if
    /// given) must match this variable's shape.
    pub fn try_bce_with_logits_mean(
        &self,
        target: &Arc<Matrix>,
        weight: Option<&Arc<Matrix>>,
    ) -> Result<Var, NnError> {
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            let z = &nodes[self.idx].value;
            if z.shape() != target.shape() {
                return Err(ShapeError::new(
                    "bce target",
                    format!("{:?}", z.shape()),
                    format!("{:?}", target.shape()),
                )
                .into());
            }
            if let Some(w) = weight {
                if z.shape() != w.shape() {
                    return Err(ShapeError::new(
                        "bce weight",
                        format!("{:?}", z.shape()),
                        format!("{:?}", w.shape()),
                    )
                    .into());
                }
            }
            let mut total = 0.0f64;
            let mut wsum = 0.0f64;
            for i in 0..z.len() {
                let zi = z.as_slice()[i];
                let ti = target.as_slice()[i];
                let wi = weight.map_or(1.0, |w| w.as_slice()[i]);
                // max(z, 0) - z t + ln(1 + exp(-|z|)), the stable form.
                let loss = zi.max(0.0) - zi * ti + (1.0 + (-zi.abs()).exp()).ln();
                total += (wi * loss) as f64;
                wsum += wi as f64;
            }
            Matrix::scalar((total / wsum.max(EPS as f64)) as f32)
        };
        Ok(self.tape.push(value, || {
            Op::BceWithLogitsMean(self.idx, Arc::clone(target), weight.map(Arc::clone))
        }))
    }

    /// Mean squared error against a constant target (scalar node).
    pub fn mse_mean(&self, target: &Arc<Matrix>) -> Var {
        self.try_mse_mean(target).unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Var::mse_mean`]: the target must match this variable's
    /// shape.
    pub fn try_mse_mean(&self, target: &Arc<Matrix>) -> Result<Var, NnError> {
        let value = {
            let nodes = self.tape.inner.nodes.borrow();
            let x = &nodes[self.idx].value;
            if x.shape() != target.shape() {
                return Err(ShapeError::new(
                    "mse target",
                    format!("{:?}", x.shape()),
                    format!("{:?}", target.shape()),
                )
                .into());
            }
            let mut total = 0.0f64;
            for (a, b) in x.as_slice().iter().zip(target.as_slice()) {
                let d = a - b;
                total += (d * d) as f64;
            }
            Matrix::scalar((total / x.len().max(1) as f64) as f32)
        };
        Ok(self
            .tape
            .push(value, || Op::MseMean(self.idx, Arc::clone(target))))
    }

    /// Runs reverse-mode differentiation from this node, seeding its gradient
    /// with ones. Parameter gradients are *accumulated* into their shared
    /// storage (call [`crate::ParamStore::zero_grad`] between steps).
    pub fn backward(&self) {
        self.try_backward().unwrap_or_else(|e| nn_panic(e))
    }

    /// Fallible [`Var::backward`]: an inference tape keeps neither its ops
    /// nor its released values, so it returns [`NnError::InferenceTape`]
    /// before touching any node.
    pub fn try_backward(&self) -> Result<(), NnError> {
        if self.tape.inner.handles.is_some() {
            return Err(NnError::InferenceTape);
        }
        let _span = cpgan_obs::span("nn.backward");
        let mut nodes = self.tape.inner.nodes.borrow_mut();
        let root = &mut nodes[self.idx];
        let (r, c) = root.value.shape();
        root.grad = Some(Matrix::full(r, c, 1.0));

        for i in (0..=self.idx).rev() {
            let (left, right) = nodes.split_at_mut(i);
            let node = &mut right[0];
            let Some(grad) = node.grad.take() else {
                continue;
            };
            backprop(node, &grad, left);
            // Keep the gradient available for inspection after backward.
            node.grad = Some(grad);
        }
        Ok(())
    }
}

/// Gets (allocating if needed) the gradient buffer of `left[idx]`.
fn grad_of(left: &mut [Node], idx: usize) -> &mut Matrix {
    let node = &mut left[idx];
    let (r, c) = node.value.shape();
    node.grad.get_or_insert_with(|| Matrix::zeros(r, c))
}

/// Propagates `grad` of `node` into its parents (all located in `left`).
fn backprop(node: &Node, grad: &Matrix, left: &mut [Node]) {
    match &node.op {
        Op::Leaf => {}
        Op::Param(p) => p.accumulate_grad(grad),
        Op::MatMul(a, b) => {
            // dA += G B^T ; dB += A^T G.
            let db = left[*a].value.matmul_tn(grad);
            let da = grad.matmul_nt(&left[*b].value);
            grad_of(left, *a).axpy(1.0, &da);
            grad_of(left, *b).axpy(1.0, &db);
        }
        Op::SpMM(_, st, x) => {
            let dx = st.matmul_dense(grad);
            grad_of(left, *x).axpy(1.0, &dx);
        }
        Op::SpmmBiasAct {
            op_t,
            x,
            bias,
            act,
            blocks,
        } => {
            // Masked upstream gradient from the saved output alone: for
            // relu `y > 0 ⇔ v > 0`, sigmoid/tanh are output-form already —
            // bitwise what the standalone activation op would produce.
            let a = *act;
            let gm = node.value.zip(grad, |y, g| a.grad_from_output(y, g));
            let dx = op_t.matmul_dense(&gm);
            grad_of(left, *x).axpy(1.0, &dx);
            if let Some(b) = bias {
                let mut drow = Matrix::zeros(1, gm.cols());
                match blocks {
                    None => {
                        // Row-major accumulation, matching AddRowBroadcast.
                        for r in 0..gm.rows() {
                            for (o, &g) in drow.row_mut(0).iter_mut().zip(gm.row(r)) {
                                *o += g;
                            }
                        }
                    }
                    Some(offs) => {
                        // Per-block partial sums combined in block order —
                        // bitwise equal to k independent per-block calls.
                        for w in offs.windows(2) {
                            let mut local = Matrix::zeros(1, gm.cols());
                            for r in w[0]..w[1] {
                                for (o, &g) in local.row_mut(0).iter_mut().zip(gm.row(r)) {
                                    *o += g;
                                }
                            }
                            drow.axpy(1.0, &local);
                        }
                    }
                }
                grad_of(left, *b).axpy(1.0, &drow);
            }
        }
        Op::Add(a, b) => {
            grad_of(left, *a).axpy(1.0, grad);
            grad_of(left, *b).axpy(1.0, grad);
        }
        Op::Sub(a, b) => {
            grad_of(left, *a).axpy(1.0, grad);
            grad_of(left, *b).axpy(-1.0, grad);
        }
        Op::Mul(a, b) => {
            if a == b {
                // d(x^2) = 2 x g.
                let da = left[*a].value.zip(grad, |x, g| 2.0 * x * g);
                grad_of(left, *a).axpy(1.0, &da);
            } else {
                let da = left[*b].value.zip(grad, |b, g| b * g);
                let db = left[*a].value.zip(grad, |a, g| a * g);
                grad_of(left, *a).axpy(1.0, &da);
                grad_of(left, *b).axpy(1.0, &db);
            }
        }
        Op::AddRowBroadcast(x, row) => {
            grad_of(left, *x).axpy(1.0, grad);
            let mut drow = Matrix::zeros(1, grad.cols());
            for r in 0..grad.rows() {
                for (o, &g) in drow.row_mut(0).iter_mut().zip(grad.row(r)) {
                    *o += g;
                }
            }
            grad_of(left, *row).axpy(1.0, &drow);
        }
        Op::BroadcastRow(row) => {
            let mut drow = Matrix::zeros(1, grad.cols());
            for r in 0..grad.rows() {
                for (o, &g) in drow.row_mut(0).iter_mut().zip(grad.row(r)) {
                    *o += g;
                }
            }
            grad_of(left, *row).axpy(1.0, &drow);
        }
        Op::Scale(x, c) => grad_of(left, *x).axpy(*c, grad),
        Op::AddScalar(x, _) => grad_of(left, *x).axpy(1.0, grad),
        Op::Relu(x) => {
            let dx = left[*x]
                .value
                .zip(grad, |v, g| if v > 0.0 { g } else { 0.0 });
            grad_of(left, *x).axpy(1.0, &dx);
        }
        Op::Sigmoid(x) => {
            let dx = node.value.zip(grad, |y, g| g * y * (1.0 - y));
            grad_of(left, *x).axpy(1.0, &dx);
        }
        Op::Tanh(x) => {
            let dx = node.value.zip(grad, |y, g| g * (1.0 - y * y));
            grad_of(left, *x).axpy(1.0, &dx);
        }
        Op::Exp(x) => {
            let dx = node.value.zip(grad, |y, g| g * y);
            grad_of(left, *x).axpy(1.0, &dx);
        }
        Op::Ln(x) => {
            let dx = left[*x].value.zip(grad, |v, g| g / (v + EPS));
            grad_of(left, *x).axpy(1.0, &dx);
        }
        Op::Sqrt(x) => {
            let dx = node.value.zip(grad, |y, g| g * 0.5 / y.max(EPS));
            grad_of(left, *x).axpy(1.0, &dx);
        }
        Op::SoftmaxRows(x) => {
            let y = &node.value;
            let mut dx = Matrix::zeros(y.rows(), y.cols());
            for r in 0..y.rows() {
                let yr = y.row(r);
                let gr = grad.row(r);
                let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                for ((o, &yv), &gv) in dx.row_mut(r).iter_mut().zip(yr).zip(gr) {
                    *o = yv * (gv - dot);
                }
            }
            grad_of(left, *x).axpy(1.0, &dx);
        }
        Op::Transpose(x) => {
            let dx = grad.transpose();
            grad_of(left, *x).axpy(1.0, &dx);
        }
        Op::ConcatCols(parts) => {
            let mut col0 = 0;
            for &p in parts {
                let cols = left[p].value.cols();
                let mut dp = Matrix::zeros(grad.rows(), cols);
                for r in 0..grad.rows() {
                    dp.row_mut(r)
                        .copy_from_slice(&grad.row(r)[col0..col0 + cols]);
                }
                grad_of(left, p).axpy(1.0, &dp);
                col0 += cols;
            }
        }
        Op::ConcatRows(parts) => {
            let mut row0 = 0;
            for &p in parts {
                let rows = left[p].value.rows();
                let mut dp = Matrix::zeros(rows, grad.cols());
                for r in 0..rows {
                    dp.row_mut(r).copy_from_slice(grad.row(row0 + r));
                }
                grad_of(left, p).axpy(1.0, &dp);
                row0 += rows;
            }
        }
        Op::MeanRows(x) => {
            let n = left[*x].value.rows().max(1) as f32;
            let dxr: Vec<f32> = grad.row(0).iter().map(|g| g / n).collect();
            let dx_target = grad_of(left, *x);
            for r in 0..dx_target.rows() {
                for (o, &g) in dx_target.row_mut(r).iter_mut().zip(&dxr) {
                    *o += g;
                }
            }
        }
        Op::SumAll(x) => {
            let g = grad.item();
            let src = &left[*x].value;
            let dx = Matrix::full(src.rows(), src.cols(), g);
            grad_of(left, *x).axpy(1.0, &dx);
        }
        Op::MeanAll(x) => {
            let g = grad.item() / left[*x].value.len().max(1) as f32;
            let src = &left[*x].value;
            let dx = Matrix::full(src.rows(), src.cols(), g);
            grad_of(left, *x).axpy(1.0, &dx);
        }
        Op::GatherRows(x, indices) => {
            let dx_target = grad_of(left, *x);
            for (r, &i) in indices.iter().enumerate() {
                for (o, &g) in dx_target.row_mut(i).iter_mut().zip(grad.row(r)) {
                    *o += g;
                }
            }
        }
        Op::RowL2Normalize(x, s) => {
            let xv = &left[*x].value;
            let mut dx = Matrix::zeros(xv.rows(), xv.cols());
            for r in 0..xv.rows() {
                let xr = xv.row(r);
                let gr = grad.row(r);
                let norm = xr.iter().map(|v| v * v).sum::<f32>().sqrt().max(EPS);
                let dot: f32 = xr.iter().zip(gr).map(|(a, b)| a * b).sum();
                for ((o, &xi), &gi) in dx.row_mut(r).iter_mut().zip(xr).zip(gr) {
                    *o = s / norm * (gi - dot * xi / (norm * norm));
                }
            }
            grad_of(left, *x).axpy(1.0, &dx);
        }
        Op::BceWithLogitsMean(x, target, weight) => {
            let g = grad.item();
            let z = &left[*x].value;
            let wsum: f32 = weight.as_ref().map_or(z.len() as f32, |w| w.sum()).max(EPS);
            let mut dx = Matrix::zeros(z.rows(), z.cols());
            for i in 0..z.len() {
                let zi = z.as_slice()[i];
                let ti = target.as_slice()[i];
                let wi = weight.as_ref().map_or(1.0, |w| w.as_slice()[i]);
                let sig = 1.0 / (1.0 + (-zi).exp());
                dx.as_mut_slice()[i] = g * wi * (sig - ti) / wsum;
            }
            grad_of(left, *x).axpy(1.0, &dx);
        }
        Op::MseMean(x, target) => {
            let g = grad.item();
            let xv = &left[*x].value;
            let n = xv.len().max(1) as f32;
            let mut dx = Matrix::zeros(xv.rows(), xv.cols());
            for i in 0..xv.len() {
                dx.as_mut_slice()[i] = g * 2.0 * (xv.as_slice()[i] - target.as_slice()[i]) / n;
            }
            grad_of(left, *x).axpy(1.0, &dx);
        }
    }
}

#[cfg(test)]
// Tests may assert exact float values (constructed, not computed).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn add_mul_backward() {
        let t = Tape::new();
        let p = Param::new(Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let x = t.param(&p);
        let y = x.mul(&x).add(&x); // y = x^2 + x, dy/dx = 2x + 1.
        y.sum_all().backward();
        assert_eq!(p.lock().grad.as_slice(), &[5.0, 7.0]);
    }

    #[test]
    fn matmul_backward_shapes_and_values() {
        let t = Tape::new();
        let pa = Param::new(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let pb = Param::new(Matrix::from_vec(2, 1, vec![5., 6.]));
        let a = t.param(&pa);
        let b = t.param(&pb);
        a.matmul(&b).sum_all().backward();
        // d/dA sum(AB) = 1 * B^T per row.
        assert_eq!(pa.lock().grad.as_slice(), &[5., 6., 5., 6.]);
        // d/dB = A^T 1 = column sums of A.
        assert_eq!(pb.lock().grad.as_slice(), &[4., 6.]);
    }

    #[test]
    fn constant_blocks_gradient() {
        let t = Tape::new();
        let c = t.constant(Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let p = Param::new(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let x = t.param(&p);
        x.mul(&c).sum_all().backward();
        assert_eq!(p.lock().grad.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn sigmoid_fixed_point() {
        let t = Tape::new();
        let p = Param::new(Matrix::scalar(0.0));
        let y = t.param(&p).sigmoid();
        assert!((y.item() - 0.5).abs() < 1e-6);
        y.backward();
        assert!((p.lock().grad.item() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tape::new();
        let x = t.constant(Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]));
        let y = x.softmax_rows().value();
        for r in 0..2 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn gather_scatter_round_trip() {
        let t = Tape::new();
        let p = Param::new(Matrix::from_vec(3, 1, vec![1., 2., 3.]));
        let x = t.param(&p);
        let idx = Arc::new(vec![0usize, 2, 0]);
        let y = x.gather_rows(&idx);
        assert_eq!(y.value().as_slice(), &[1., 3., 1.]);
        y.sum_all().backward();
        // Row 0 selected twice -> grad 2, row 1 never -> 0, row 2 once -> 1.
        assert_eq!(p.lock().grad.as_slice(), &[2., 0., 1.]);
    }

    #[test]
    fn bce_matches_manual() {
        let t = Tape::new();
        let p = Param::new(Matrix::scalar(0.0));
        let target = Arc::new(Matrix::scalar(1.0));
        let loss = t.param(&p).bce_with_logits_mean(&target, None);
        // -ln(sigmoid(0)) = ln 2.
        assert!((loss.item() - std::f32::consts::LN_2).abs() < 1e-6);
        loss.backward();
        // d = sigmoid(0) - 1 = -0.5.
        assert!((p.lock().grad.item() + 0.5).abs() < 1e-6);
    }

    #[test]
    fn grad_accumulates_across_backwards() {
        let p = Param::new(Matrix::scalar(1.0));
        for _ in 0..2 {
            let t = Tape::new();
            t.param(&p).scale(3.0).backward();
        }
        assert_eq!(p.lock().grad.item(), 6.0);
        p.zero_grad();
        assert_eq!(p.lock().grad.item(), 0.0);
    }

    #[test]
    #[should_panic(expected = "different tapes")]
    fn cross_tape_rejected() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let a = t1.scalar(1.0);
        let b = t2.scalar(1.0);
        let _ = a.add(&b);
    }

    #[test]
    fn try_ops_surface_typed_errors() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let a = t1.scalar(1.0);
        let b = t2.scalar(1.0);
        assert!(matches!(
            a.try_add(&b),
            Err(NnError::TapeMismatch { op: "add" })
        ));
        assert!(a.try_matmul(&b).is_err());

        let x = t1.constant(Matrix::zeros(2, 3));
        let y = t1.constant(Matrix::zeros(3, 3));
        assert!(matches!(x.try_add(&y), Err(NnError::Shape(_))));
        assert!(Var::try_concat_cols(&[x.clone(), y.clone()]).is_err());
        assert!(Var::try_concat_cols(&[]).is_err());
        assert!(Var::try_concat_rows(&[x.clone(), t1.constant(Matrix::zeros(1, 2))]).is_err());
        assert!(x.try_broadcast_row(4).is_err());
        assert!(x
            .try_bce_with_logits_mean(&Arc::new(Matrix::zeros(1, 1)), None)
            .is_err());
        assert!(x.try_mse_mean(&Arc::new(Matrix::zeros(1, 1))).is_err());

        // Ok paths behave like the panicking wrappers.
        let ok = x.try_add(&t1.constant(Matrix::zeros(2, 3))).unwrap();
        assert_eq!(ok.shape(), (2, 3));
        let cat = Var::try_concat_rows(&[x.clone(), x.clone()]).unwrap();
        assert_eq!(cat.shape(), (4, 3));
    }
}
