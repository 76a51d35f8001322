package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics. Those set go into the JSON result line;
// every one is also printed as a human-readable "name value unit" line.
type report struct {
	metrics map[string]metric
	info    []string
	checks  []string // failed correctness checks, one line each
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric that belongs to the result line.
func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note records a metric printed for people but left out of the JSON line:
// workload-specific names and ratios that may be zero.
func (r *report) note(name string, v float64, unit string) {
	r.info = append(r.info, fmt.Sprintf("%-32s %14.6g %s", name, v, unit))
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// write prints the human-readable lines and then the JSON result line.
func (r *report) write(w io.Writer, attempted, failed int) error {
	var b strings.Builder
	for _, c := range r.checks {
		fmt.Fprintf(&b, "CHECK FAILED: %s\n", c)
	}
	for _, l := range r.info {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(&b, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(result{
		Correct:   len(r.checks) == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// orZero maps NaN (a quantile of no samples) to zero for per-layer
// metrics of layers a workload does not reach.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
