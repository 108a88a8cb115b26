// Package pgasemb is the public API of the PGAS embedding-retrieval
// reproduction: a functional + timing-accurate simulation of multi-GPU
// DLRM embedding retrieval that compares NCCL-style collective
// communication against PGAS-style one-sided small messages, reproducing
// the evaluation of "Accelerating Multi-GPU Embedding Retrieval with
// PGAS-Style Communication for Deep Learning Recommendation Systems"
// (Chen, Buluç, Yelick, Owens — SC 2024).
//
// Quick start:
//
//	cfg := pgasemb.WeakScalingConfig(4)
//	sys, err := pgasemb.NewSystem(cfg, pgasemb.DefaultHardware())
//	if err != nil { ... }
//	res, err := sys.Run(pgasemb.NewPGASFused())
//	fmt.Println(res.TotalTime)
//
// The package re-exports the surface the examples and package tests use;
// the command-line tools under cmd/ import the internal packages directly.
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-vs-measured comparison.
package pgasemb

import (
	"context"
	"pgasemb/internal/dlrm"
	"pgasemb/internal/experiments"
	"pgasemb/internal/nvlink"
	"pgasemb/internal/retrieval"
)

// Core experiment types.
type (
	// Config describes one retrieval experiment (GPUs, tables, batch,
	// pooling, batches). See WeakScalingConfig / StrongScalingConfig for
	// the paper's setups.
	Config = retrieval.Config
	// HardwareParams bundles the GPU, NVLink and collective models.
	HardwareParams = retrieval.HardwareParams
	// SystemSpec is the immutable, validated description of a simulated
	// machine; any number of independent Systems (runs) can be created
	// from one spec concurrently.
	SystemSpec = retrieval.SystemSpec
	// System is one run of a wired simulated machine ready to execute
	// backends.
	System = retrieval.System
	// Result is one run's timing (and, in functional mode, outputs).
	Result = retrieval.Result
	// Backend is an EMB-layer retrieval implementation.
	Backend = retrieval.Backend
	// AggregatorConfig enables the future-work aggregated-store variant.
	AggregatorConfig = retrieval.AggregatorConfig
	// Pipeline runs full DLRM inference around a retrieval backend.
	Pipeline = dlrm.Pipeline
	// Trainer times full DLRM training steps (EMB forward + dense
	// forward/backward + EMB backward).
	Trainer = dlrm.Trainer
)

// Experiment harness types.
type (
	// ScalingKind selects the weak- or strong-scaling experiment.
	ScalingKind = experiments.ScalingKind
	// ScalingResult is a sweep over GPU counts with both backends.
	ScalingResult = experiments.ScalingResult
	// CommVolumeResult is the Figures 7/10 volume-over-time profile.
	CommVolumeResult = experiments.CommVolumeResult
	// ExperimentOptions tunes a harness run.
	ExperimentOptions = experiments.Options
)

// Experiment kinds.
const (
	WeakScaling   = experiments.WeakScaling
	StrongScaling = experiments.StrongScaling
)

// Component names appearing in result breakdowns.
const (
	CompComputation = retrieval.CompComputation
	CompComm        = retrieval.CompComm
	CompSyncUnpack  = retrieval.CompSyncUnpack
)

// RowWiseSharding (Config.Sharding) splits every table's rows across GPUs
// (RecShard style) instead of giving each GPU whole tables; it requires sum
// pooling and the row-wise backends.
const RowWiseSharding = retrieval.RowWise

// DefaultHardware returns the calibrated DGX Station V100 parameter set.
func DefaultHardware() HardwareParams { return retrieval.DefaultHardware() }

// A100Hardware returns an A100-generation machine (faster devices, NVLink
// 3.0), for cross-hardware sensitivity runs.
func A100Hardware() HardwareParams { return retrieval.A100Hardware() }

// MultiNodeHardware returns the default hardware with the interconnect
// split into `nodes` chassis joined by thin NVLink-modeled network links —
// a topology-only multi-node approximation. The full cluster model (NICs,
// hierarchical collectives, proxy coalescing) drives the multinode,
// precision and chaos tools. The experiment's GPU count must be divisible
// by `nodes`; a count that is not is rejected with an error by
// NewSystemSpec / NewSystem.
func MultiNodeHardware(nodes int) HardwareParams {
	hw := retrieval.DefaultHardware()
	hw.Topology = func(gpus int) nvlink.Topology {
		if nodes <= 0 || gpus%nodes != 0 {
			// A topology wiring zero GPUs never matches the configuration,
			// so spec validation reports the mismatch as an error.
			return nvlink.MultiNode{Nodes: nodes, PerNode: 0, IntraLinks: 2}
		}
		return nvlink.MultiNode{Nodes: nodes, PerNode: gpus / nodes, IntraLinks: 2}
	}
	return hw
}

// NewSystemSpec validates the configuration and hardware and returns the
// immutable spec from which runs are created.
func NewSystemSpec(cfg Config, hw HardwareParams) (*SystemSpec, error) {
	return retrieval.NewSystemSpec(cfg, hw)
}

// NewSystem wires a simulated machine for the configuration: shorthand for
// NewSystemSpec followed by SystemSpec.NewRun.
func NewSystem(cfg Config, hw HardwareParams) (*System, error) {
	return retrieval.NewSystem(cfg, hw)
}

// WeakScalingConfig returns the paper's §IV-A configuration (64 tables per
// GPU, batch 16384, pooling up to 128, 100 batches).
func WeakScalingConfig(gpus int) Config { return retrieval.WeakScalingConfig(gpus) }

// StrongScalingConfig returns the paper's §IV-B configuration (96 tables
// total, batch 16384, pooling up to 32, 100 batches).
func StrongScalingConfig(gpus int) Config { return retrieval.StrongScalingConfig(gpus) }

// CriteoShapedConfig returns a Criteo-style configuration (26
// single-valued sparse features) — the latency-dominated EMB regime.
func CriteoShapedConfig(gpus int) Config { return retrieval.CriteoShapedConfig(gpus) }

// TestScaleConfig returns a small functional configuration whose outputs
// are verified bit-exactly against a serial reference.
func TestScaleConfig(gpus int) Config { return retrieval.TestScaleConfig(gpus) }

// NewBaseline returns the NCCL-collective baseline backend (kernel → sync →
// all_to_all_single → unpack).
func NewBaseline() Backend { return &retrieval.Baseline{} }

// NewPGASFused returns the paper's PGAS one-sided fused-kernel backend.
func NewPGASFused() Backend { return &retrieval.PGASFused{} }

// NewUnpackOnlyAblation returns ablation A1: collective communication kept,
// unpack step eliminated (direct placement).
func NewUnpackOnlyAblation() Backend { return &retrieval.Baseline{DirectPlacement: true} }

// NewOverlapOnlyAblation returns ablation A2: one-sided overlapped stores
// into a staging layout, unpack step retained.
func NewOverlapOnlyAblation() Backend { return &retrieval.PGASFused{StageRemote: true} }

// NewAggregatedPGAS returns the future-work variant A3: one-sided stores
// batched through an asynchronous aggregator.
func NewAggregatedPGAS(cfg AggregatorConfig) Backend {
	return &retrieval.PGASFused{Aggregate: &cfg}
}

// NewBackwardBaseline returns the backward-pass baseline (future-work §V
// comparison): multi-round collective gradient shifts with per-round
// synchronisation, then a scatter-add into the tables.
func NewBackwardBaseline() Backend { return &retrieval.BackwardBaseline{} }

// NewBackwardPGAS returns the paper's proposed backward pass: one-sided
// remote atomic gradient pushes fused with the table-update kernel.
func NewBackwardPGAS() Backend { return &retrieval.BackwardPGAS{} }

// NewRowWiseBaseline returns the reduce-scatter row-wise EMB forward.
func NewRowWiseBaseline() Backend { return &retrieval.RowWiseBaseline{} }

// NewRowWisePGAS returns the one-sided atomic-accumulate row-wise EMB
// forward.
func NewRowWisePGAS() Backend { return &retrieval.RowWisePGAS{} }

// NewInputStaged decorates a backend with the sparse-input pipeline (CPU
// partition + host-to-device copy). overlap=true models the paper's
// proposed fusion of input partitioning into the computation kernel.
func NewInputStaged(inner Backend, overlap bool) Backend {
	return &retrieval.InputStaged{Inner: inner, Overlap: overlap}
}

// SkewedPooling builds a heterogeneous per-feature pooling vector for
// Config.PerFeatureMaxPooling: hotFraction of the features get hotMax, the
// rest coldMax.
func SkewedPooling(totalTables int, hotFraction float64, hotMax, coldMax int) []int {
	return retrieval.SkewedPooling(totalTables, hotFraction, hotMax, coldMax)
}

// RunScaling executes the weak- or strong-scaling sweep (Tables 1/2,
// Figures 5/6/8/9).
func RunScaling(kind ScalingKind, opts ExperimentOptions) (*ScalingResult, error) {
	return experiments.RunScaling(context.Background(), kind, opts)
}

// RunCommVolume profiles communication volume over time (Figures 7/10).
func RunCommVolume(kind ScalingKind, gpus, bins int, opts ExperimentOptions) (*CommVolumeResult, error) {
	return experiments.RunCommVolume(context.Background(), kind, gpus, bins, opts)
}

// NewPipeline wires a full DLRM inference pipeline around the given
// retrieval backend.
func NewPipeline(cfg Config, hw HardwareParams, backend Backend) (*Pipeline, error) {
	return dlrm.NewPipeline(cfg, hw, backend)
}

// NewTrainer wires a training-step driver with separate forward and
// backward EMB communication schemes.
func NewTrainer(cfg Config, hw HardwareParams, fwd, bwd Backend) (*Trainer, error) {
	return dlrm.NewTrainer(cfg, hw, fwd, bwd)
}
