package main

import (
	"fmt"
	"math"
	"time"

	"netpart/internal/mmps"
	"netpart/internal/stencil"
)

// calibration holds single-layer baselines measured outside any call:
// they turn the traced phase split into a kernel/codec model and residual.
type calibration struct {
	SweepNsPerCell float64 // single-threaded stencil.Sequential, ns per cell update
	CodecNsPerByte float64 // AppendFloat64s + DecodeFloat64sInto at the halo size
}

// calibrate measures the baselines at grid width n. The sweep runs few
// enough iterations from the initial grid that no subnormal values appear
// yet, so it is the plain kernel cost.
func calibrate(n int) (calibration, error) {
	const reps = 5
	iters := max(2, int(5e7/float64(n*n)))
	grid := stencil.NewGrid(n)
	sweeps := make([]float64, reps)
	for i := range sweeps {
		start := time.Now()
		stencil.Sequential(grid, iters)
		sweeps[i] = float64(time.Since(start)) / float64(iters*n*n)
	}

	row := grid[n/2]
	buf := make([]byte, 0, 8*n)
	vals := make([]float64, 0, n)
	loops := max(100, int(2e7/float64(8*n)))
	codec := make([]float64, reps)
	for i := range codec {
		start := time.Now()
		for j := 0; j < loops; j++ {
			buf = mmps.AppendFloat64s(buf[:0], row)
			var err error
			vals, err = mmps.DecodeFloat64sInto(vals[:0], buf)
			if err != nil {
				return calibration{}, fmt.Errorf("codec calibration: %w", err)
			}
		}
		codec[i] = float64(time.Since(start)) / float64(loops*8*n)
	}
	if vals[0] != row[0] {
		return calibration{}, fmt.Errorf("codec calibration: round trip changed a value")
	}
	return calibration{SweepNsPerCell: median(sweeps), CodecNsPerByte: median(codec)}, nil
}

// subnormalFrac is the share of cells of g holding subnormal values, whose
// arithmetic is far slower on most hardware.
func subnormalFrac(g [][]float64) float64 {
	sub, all := 0, 0
	for _, row := range g {
		for _, x := range row {
			if x != 0 && math.Abs(x) < 0x1p-1022 {
				sub++
			}
			all++
		}
	}
	return float64(sub) / float64(all)
}
