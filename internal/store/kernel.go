package store

import (
	"context"
	"fmt"

	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

// KernelOp names one in-store compute kernel. The set mirrors the
// push-down kernels (pushdown.go); the numeric values are wire-stable
// — internal/wire serializes them verbatim.
type KernelOp uint8

const (
	// KernelSumAll reduces every live value to one sum.
	KernelSumAll KernelOp = iota + 1
	// KernelSumRegion reduces a rectangular region's live values.
	KernelSumRegion
	// KernelLiveNNZ counts live cells.
	KernelLiveNNZ
	// KernelNNZPerSlice counts live cells per index of one mode.
	KernelNNZPerSlice
	// KernelSpMV computes y = A·x over a 2-dim store.
	KernelSpMV
	// KernelTTV contracts the tensor with a vector along one mode.
	KernelTTV
)

// String names the op for logs and metric labels.
func (op KernelOp) String() string {
	switch op {
	case KernelSumAll:
		return "sum"
	case KernelSumRegion:
		return "sum_region"
	case KernelLiveNNZ:
		return "nnz"
	case KernelNNZPerSlice:
		return "nnz_slice"
	case KernelSpMV:
		return "spmv"
	case KernelTTV:
		return "ttv"
	default:
		return fmt.Sprintf("kernel(%d)", uint8(op))
	}
}

// KernelRequest describes one push-down kernel execution — the
// serializable companion of QueryRequest for the compute ops.
type KernelRequest struct {
	// Op selects the kernel.
	Op KernelOp
	// Region restricts KernelSumRegion; other ops reject it.
	Region *tensor.Region
	// Mode is the contraction/count mode for KernelTTV and
	// KernelNNZPerSlice.
	Mode int
	// Vec is the operand vector for KernelSpMV (x) and KernelTTV.
	Vec []float64
	// Workers bounds the push-down worker pool; < 1 means all cores.
	Workers int
}

// KernelResult carries any kernel's answer in one shape: scalar
// kernels return Values of length 1 (counts converted to float64 —
// exact to 2⁵³), vector kernels return the dense output, and TTV also
// reports the output's shape.
type KernelResult struct {
	Values []float64
	Shape  tensor.Shape
	Report *PushReport
}

// Kernel executes one KernelRequest — the single compute entry point
// the wire protocol serves. Cancellation is checked per fragment by
// the underlying push-down executor.
func (s *Store) Kernel(ctx context.Context, req KernelRequest) (*KernelResult, error) {
	return runKernel(ctx, s.obsReg(), s.curKind().String(), req, s.kernelAt)
}

// runKernel rejects a region on an op that takes none, then runs the
// kernel under its request span with cost attribution: the part
// Store.Kernel and Chunked.Kernel share.
func runKernel(ctx context.Context, reg *obs.Registry, kind string, req KernelRequest,
	run func(context.Context, KernelRequest) (*KernelResult, error)) (*KernelResult, error) {
	if req.Region != nil && req.Op != KernelSumRegion {
		return nil, fmt.Errorf("store: %w: kernel %v takes no region", ErrBadRequest, req.Op)
	}
	sp, ctx := reg.StartCtx(ctx, obsKernel)
	if sp.Sampled() {
		sp.SetAttrStr("kernel", req.Op.String())
	}
	res, err := run(ctx, req)
	var rep *PushReport
	if res != nil {
		rep = res.Report
	}
	FinishRequestSpan(reg, ctx, sp, obsKernel, kind, PushCost(rep), err)
	return res, err
}

// kernelAt dispatches the kernel to its push-down executor.
func (s *Store) kernelAt(ctx context.Context, req KernelRequest) (*KernelResult, error) {
	switch req.Op {
	case KernelSumAll:
		return scalarResult(s.SumAllContext(ctx, req.Workers))
	case KernelSumRegion:
		if req.Region == nil {
			return nil, fmt.Errorf("store: %w: kernel %v needs a region", ErrBadRequest, req.Op)
		}
		return scalarResult(s.SumRegionContext(ctx, *req.Region, req.Workers))
	case KernelLiveNNZ:
		return scalarResult(s.LiveNNZContext(ctx, req.Workers))
	case KernelNNZPerSlice:
		counts, rep, err := s.NNZPerSliceContext(ctx, req.Mode, req.Workers)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(counts))
		for i, n := range counts {
			vals[i] = float64(n)
		}
		return &KernelResult{Values: vals, Report: rep}, nil
	case KernelSpMV:
		y, rep, err := s.SpMVContext(ctx, req.Vec, req.Workers)
		if err != nil {
			return nil, err
		}
		return &KernelResult{Values: y, Report: rep}, nil
	case KernelTTV:
		out, shape, rep, err := s.TTVContext(ctx, req.Mode, req.Vec, req.Workers)
		if err != nil {
			return nil, err
		}
		return &KernelResult{Values: out, Shape: shape, Report: rep}, nil
	default:
		return nil, fmt.Errorf("store: %w: unknown kernel op %d", ErrBadRequest, uint8(req.Op))
	}
}

// scalarResult wraps a scalar kernel's answer.
func scalarResult[T int64 | float64](v T, rep *PushReport, err error) (*KernelResult, error) {
	if err != nil {
		return nil, err
	}
	return &KernelResult{Values: []float64{float64(v)}, Report: rep}, nil
}
