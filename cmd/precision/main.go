// Command precision runs the mixed-precision wire-transport sweep: every
// (backend, dedup, precision) cell is a timing run on the same seed, so the
// table isolates what fp16 and per-row-scaled int8 wire formats buy on
// NVLink and NIC traffic and on EMB time, next to the measured worst-case
// output error each format introduces.
//
// Usage:
//
//	precision [-nodes 1] [-gpus-per-node 4] [-batches 0] [-batchsize 0]
//	          [-backend baseline,pgas-fused,hybrid] [-parallel N] [-csv]
//	          [-out ""] [-timeout 0]
//
// With -out set, the rendered table and its CSV are also written to
// <out>/precision.txt and <out>/precision.csv.
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
	c := cli.New("precision", stdout, stderr)
	nodes := c.Int("nodes", 1, "NVLink node count (>1 adds NIC-joined cluster fabric)")
	gpusPerNode := c.Int("gpus-per-node", 4, "GPUs per node")
	batches := c.Int("batches", 0, "inference batches per run (0 = configuration default)")
	batchSize := c.Int("batchsize", 0, "global batch size (0 = configuration default)")
	backends := c.Backends("baseline,pgas-fused,hybrid")
	c.Parallel()
	c.CSV()
	c.Out("")
	c.Timeout()
	c.Positive("nodes", "gpus-per-node")
	c.NonNegative("batches", "batchsize")
	return c.Run(args, func(ctx context.Context) error {
		res, err := experiments.RunPrecision(ctx, experiments.Options{
			GPUs:      *gpusPerNode,
			Nodes:     *nodes,
			Batches:   *batches,
			BatchSize: *batchSize,
			Backends:  *backends,
			Parallel:  c.Workers(),
		})
		if err != nil {
			return err
		}
		return c.Table("precision", res.SweepTable())
	})
}
