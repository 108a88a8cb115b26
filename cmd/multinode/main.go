// Command multinode runs the multi-node scaling evaluation (the paper's §V
// future-work setting): N NVLink nodes joined by NICs, the baseline over
// hierarchical collectives, PGAS over the proxy-coalesced inter-node
// one-sided path. It prints weak- and strong-scaling tables with NIC-traffic
// columns.
//
// Usage:
//
//	multinode [-nodes 4] [-gpus-per-node 4] [-batches 0] [-batchsize 0]
//	          [-backend pgas-fused] [-precision fp32] [-parallel N] [-csv]
//	          [-timeout 0]
//
// -backend swaps the accelerated column's backend for any one registered
// name (e.g. hybrid); the baseline column always runs for comparison.
package main

import (
	"context"
	"io"
	"os"

	"pgasemb/internal/cli"
	"pgasemb/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("multinode", stdout, stderr)
	nodes := c.Int("nodes", 4, "largest node count in the sweep")
	gpusPerNode := c.Int("gpus-per-node", 4, "GPUs per node")
	batches := c.Int("batches", 0, "inference batches per run (0 = configuration default)")
	batchSize := c.Int("batchsize", 0, "global batch size (0 = configuration default)")
	backend := c.Backend("pgas-fused")
	prec := c.Precision("wire transport format for embedding rows, both columns: fp32, fp16 or int8")
	c.Parallel()
	c.CSV()
	c.Timeout()
	c.Positive("nodes", "gpus-per-node")
	c.NonNegative("batches", "batchsize")
	return c.Run(args, func(ctx context.Context) error {
		opts := experiments.Options{
			GPUs:          *gpusPerNode,
			Nodes:         *nodes,
			Batches:       *batches,
			BatchSize:     *batchSize,
			Backends:      []string{*backend},
			WirePrecision: *prec,
			Parallel:      c.Workers(),
		}
		var results []*experiments.ScalingResult
		for _, kind := range []experiments.ScalingKind{experiments.WeakScaling, experiments.StrongScaling} {
			res, err := experiments.RunScaling(ctx, kind, opts)
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		for _, res := range results {
			if err := c.Table("", res.MultiNodeTable()); err != nil {
				return err
			}
			if err := c.Table("", res.MultiNodeCommTable()); err != nil {
				return err
			}
		}
		return nil
	})
}
