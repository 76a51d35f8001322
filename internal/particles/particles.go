// Package particles implements the third PDU type Section 4.0 names — "a
// collection of particles in a particle simulation" — as a 1-D short-range
// particle dynamics code. The domain [0,1) is divided into C cells (the
// PDU is a cell); particles repel their neighbors within one cell width
// and migrate between cells as they move. Unlike the stencil, the work per
// PDU is *data dependent*: a cell's cost grows with the square of its
// local density, so a clumped distribution makes the uniform Eq. 3
// decomposition imbalanced and calls for the weighted decomposition this
// package provides.
//
// The distributed runtime (1-D topology: ghost-cell exchange before the
// force step, emigrant exchange after the move step) is bit-exact with the
// sequential reference: all force sums iterate neighbors in ascending
// particle-ID order regardless of which task owns them.
//
//netpart:deterministic
package particles

import (
	"errors"
	"fmt"
	"sort"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/spmd"
	"netpart/internal/topo"
)

// Particle is one simulated particle.
type Particle struct {
	ID  int
	Pos float64
	Vel float64
}

// System is a particle system over [0,1) with C cells.
type System struct {
	Cells     int
	Particles []Particle
}

// Dt is the integration step; small enough that particles cross at most
// one cell boundary per step (enforced by a velocity clamp in the move).
const Dt = 0.05

// bytesPerParticle is the wire size of one particle (id, pos, vel as
// 8-byte values; the paper's coercion format).
const bytesPerParticle = 24

// opsPerInteraction is the charged cost of one pair examination.
const opsPerInteraction = 3

// opsPerMove is the charged cost of integrating one particle.
const opsPerMove = 5

// NewSystem creates a deterministic system of n particles over cells
// cells. clump > 0 concentrates that fraction of the particles into the
// first tenth of the domain (the non-uniform density case); 0 gives a
// uniform distribution.
func NewSystem(cells, n int, seed uint64, clump float64) System {
	lcg := seed*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return float64(lcg>>11) / float64(1<<53)
	}
	s := System{Cells: cells}
	for i := 0; i < n; i++ {
		pos := next()
		if float64(i) < clump*float64(n) {
			pos = next() * 0.1 // clumped into the first tenth
		}
		s.Particles = append(s.Particles, Particle{
			ID:  i,
			Pos: pos,
			Vel: (next() - 0.5) * 0.02,
		})
	}
	return s
}

// CellOf returns the cell index of a position.
func (s System) CellOf(pos float64) int {
	c := int(pos * float64(s.Cells))
	if c < 0 {
		c = 0
	}
	if c >= s.Cells {
		c = s.Cells - 1
	}
	return c
}

// Histogram returns the particle count per cell.
func (s System) Histogram() []int {
	h := make([]int, s.Cells)
	for _, p := range s.Particles {
		h[s.CellOf(p.Pos)]++
	}
	return h
}

// clone deep-copies the system.
func (s System) clone() System {
	return System{Cells: s.Cells, Particles: append([]Particle(nil), s.Particles...)}
}

// binByCell returns per-cell particle lists sorted by ID (the canonical
// iteration order that makes distributed force sums bit-exact).
func binByCell(s System) [][]Particle {
	cells := make([][]Particle, s.Cells)
	for _, p := range s.Particles {
		c := s.CellOf(p.Pos)
		cells[c] = append(cells[c], p)
	}
	for c := range cells {
		sort.Slice(cells[c], func(i, j int) bool { return cells[c][i].ID < cells[c][j].ID })
	}
	return cells
}

// force computes the short-range repulsion on particle p from the
// neighbors list (which must be in ascending ID order): each neighbor
// within one cell width r pushes with magnitude (r - distance).
func force(p Particle, neighbors []Particle, r float64) float64 {
	f := 0.0
	for _, q := range neighbors {
		if q.ID == p.ID {
			continue
		}
		d := p.Pos - q.Pos
		if d > -r && d < r {
			if d >= 0 {
				f += r - d
			} else {
				f -= r + d
			}
		}
	}
	return f
}

// step advances the particles of the given cells one Dt using ghost
// neighbor lists; it returns the moved particles and the operation count
// (the non-uniform computational complexity). The move clamps velocity so
// a particle crosses at most one cell per step and reflects at the walls.
func step(cells [][]Particle, lo, hi int, left, right []Particle, cellWidth float64, nCells int) ([]Particle, float64) {
	r := cellWidth
	ops := 0.0
	var moved []Particle
	maxStep := cellWidth / Dt // velocity bound: one cell per step
	for c := lo; c < hi; c++ {
		for _, p := range cells[c] {
			var neighbors []Particle
			// Ascending-ID merge over the three relevant cells keeps the
			// floating-point sum order identical however ownership splits.
			var pools [][]Particle
			if c-1 >= lo {
				pools = append(pools, cells[c-1])
			} else if left != nil {
				pools = append(pools, left)
			}
			pools = append(pools, cells[c])
			if c+1 < hi {
				pools = append(pools, cells[c+1])
			} else if right != nil {
				pools = append(pools, right)
			}
			neighbors = mergeByID(pools)
			f := force(p, neighbors, r)
			ops += float64(len(neighbors))*opsPerInteraction + opsPerMove
			p.Vel += f * Dt
			if p.Vel > maxStep {
				p.Vel = maxStep
			}
			if p.Vel < -maxStep {
				p.Vel = -maxStep
			}
			p.Pos += p.Vel * Dt
			// Reflect at the walls.
			if p.Pos < 0 {
				p.Pos = -p.Pos
				p.Vel = -p.Vel
			}
			if p.Pos >= 1 {
				p.Pos = 2 - p.Pos
				p.Vel = -p.Vel
				if p.Pos >= 1 { // numerical edge
					p.Pos = 0.9999999999
				}
			}
			moved = append(moved, p)
		}
	}
	return moved, ops
}

// mergeByID merges ID-sorted particle lists into one ID-sorted list.
func mergeByID(pools [][]Particle) []Particle {
	total := 0
	for _, p := range pools {
		total += len(p)
	}
	out := make([]Particle, 0, total)
	for _, p := range pools {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Sequential advances a copy of the system the given number of steps and
// returns it (particles sorted by ID). It is the correctness reference.
func Sequential(s System, steps int) System {
	w := s.clone()
	cellWidth := 1.0 / float64(s.Cells)
	for it := 0; it < steps; it++ {
		cells := binByCell(w)
		moved, _ := step(cells, 0, s.Cells, nil, nil, cellWidth, s.Cells)
		sort.Slice(moved, func(i, j int) bool { return moved[i].ID < moved[j].ID })
		w.Particles = moved
	}
	return w
}

// Annotations returns the partitioning callbacks: PDU = cell, 1-D
// topology, average-density complexity (the data-dependent reality is what
// the weighted decomposition and experiment E13 address).
func Annotations(cells, particles, steps int) *core.Annotations {
	avg := float64(particles) / float64(cells)
	return &core.Annotations{
		Name:    "particles",
		NumPDUs: func() int { return cells },
		Compute: []core.ComputationPhase{{
			Name: "force-and-move",
			// Each of the ~avg particles per cell examines ~3·avg
			// neighbors.
			ComplexityPerPDU: func() float64 { return avg * (3*avg*opsPerInteraction + opsPerMove) },
			Class:            model.OpFloat,
		}},
		Comm: []core.CommunicationPhase{{
			Name:     "ghost-and-migration",
			Topology: "1-D",
			// Border-cell ghosts plus emigrants, ≈ two average cells.
			BytesPerMessage: func(float64) float64 { return 2 * avg * bytesPerParticle },
		}},
		Cycles: steps,
	}
}

// WeightedVector computes a density-aware partition vector: contiguous
// cell ranges whose estimated work (Σ per-cell density² cost, divided by
// the processor's speed) is balanced. weights[c] is the particle count of
// cell c. This is the paper's general decomposition specialized to
// per-PDU weights.
func WeightedVector(net *model.Network, cfg cost.Config, weights []int, class model.OpClass) (core.Vector, error) {
	names, counts := cfg.Active()
	nTasks := 0
	for _, c := range counts {
		nTasks += c
	}
	if nTasks == 0 {
		return nil, errors.New("particles: empty configuration")
	}
	if len(weights) < nTasks {
		return nil, fmt.Errorf("particles: %d cells over %d tasks", len(weights), nTasks)
	}
	// Per-task speed (1/opTime), in rank order.
	speeds := make([]float64, 0, nTasks)
	for i, name := range names {
		c := net.Cluster(name)
		if c == nil {
			return nil, fmt.Errorf("particles: unknown cluster %q", name)
		}
		for j := 0; j < counts[i]; j++ {
			speeds = append(speeds, 1/c.OpTime(class))
		}
	}
	totalSpeed := 0.0
	for _, s := range speeds {
		totalSpeed += s
	}
	// Per-cell work estimate: density² (pair interactions dominate).
	work := make([]float64, len(weights))
	totalWork := 0.0
	for c, w := range weights {
		work[c] = float64(w)*float64(w) + 1 // +1 keeps empty cells assignable
		totalWork += work[c]
	}
	// Greedy prefix walk: cut when the running share reaches the task's
	// speed-proportional target, always leaving one cell per remaining task.
	vec := make(core.Vector, nTasks)
	cell := 0
	for rank := 0; rank < nTasks; rank++ {
		remainingTasks := nTasks - rank - 1
		target := totalWork * speeds[rank] / totalSpeed
		got := 0.0
		count := 0
		for cell < len(weights)-remainingTasks {
			if count > 0 && got >= target && rank < nTasks-1 {
				break
			}
			got += work[cell]
			cell++
			count++
		}
		vec[rank] = count
		totalWork -= got
		totalSpeed -= speeds[rank]
	}
	// Any remaining cells go to the last task.
	if cell < len(weights) {
		vec[nTasks-1] += len(weights) - cell
	}
	if vec.Sum() != len(weights) {
		return nil, fmt.Errorf("particles: weighted vector sums to %d, want %d", vec.Sum(), len(weights))
	}
	return vec, nil
}

// SimResult is the outcome of a simulated distributed run.
type SimResult struct {
	ElapsedMs float64
	Final     System
	Report    spmd.Report
}

// RunSim executes the distributed simulation: tasks own contiguous cell
// ranges per the partition vector, exchange border-cell ghosts before each
// force step and emigrants after each move, and the final particle set is
// bit-exact with Sequential.
//
// Unlike the stencil (stencil.SimElapsed), this simulation has no
// schedule-only mode: its simulated time depends on the particle values.
// Each step charges the pair interactions actually computed and each ghost
// or emigrant message is sized by the particles it carries, so as particles
// move, the per-cell weights and the message sizes move with them. Timing
// without the numerics would be wrong.
func RunSim(net *model.Network, cfg cost.Config, vec core.Vector, s System, steps int) (SimResult, error) {
	if vec.Sum() != s.Cells {
		return SimResult{}, fmt.Errorf("particles: vector sums to %d, want %d cells", vec.Sum(), s.Cells)
	}
	names, counts := cfg.Active()
	pl, err := topo.Contiguous(names, counts)
	if err != nil {
		return SimResult{}, err
	}
	if pl.NumTasks() != len(vec) {
		return SimResult{}, errors.New("particles: configuration and vector disagree on task count")
	}
	finals := make([][]Particle, pl.NumTasks())
	job := spmd.Job{
		Net:       net,
		Placement: pl,
		Vector:    vec,
		Topology:  topo.OneD{},
		Body: func(t *spmd.Task) {
			finals[t.Rank()] = runTask(t, s, steps)
		},
	}
	rep, err := spmd.Run(job)
	if err != nil {
		return SimResult{}, err
	}
	out := System{Cells: s.Cells}
	for _, f := range finals {
		out.Particles = append(out.Particles, f...)
	}
	sort.Slice(out.Particles, func(i, j int) bool { return out.Particles[i].ID < out.Particles[j].ID })
	if len(out.Particles) != len(s.Particles) {
		return SimResult{}, fmt.Errorf("particles: %d particles survived of %d", len(out.Particles), len(s.Particles))
	}
	return SimResult{ElapsedMs: rep.ElapsedMs, Final: out, Report: rep}, nil
}

// runTask owns cells [lo, hi) and returns its final particles.
func runTask(t *spmd.Task, s System, steps int) []Particle {
	lo := t.PDUOffset()
	hi := lo + t.PDUs()
	cellWidth := 1.0 / float64(s.Cells)
	// Local cell bins over the global index space (only [lo,hi) used).
	cells := make([][]Particle, s.Cells)
	for _, p := range s.Particles {
		c := s.CellOf(p.Pos)
		if c >= lo && c < hi {
			cells[c] = append(cells[c], p)
		}
	}
	for c := lo; c < hi; c++ {
		sort.Slice(cells[c], func(i, j int) bool { return cells[c][i].ID < cells[c][j].ID })
	}
	north, south := t.Rank()-1, t.Rank()+1
	hasNorth, hasSouth := north >= 0, south < t.NumTasks()

	sendList := func(dst int, list []Particle) {
		t.Send(dst, len(list)*bytesPerParticle+8, append([]Particle(nil), list...))
	}
	for it := 0; it < steps; it++ {
		// Ghost exchange: border cells travel to the 1-D neighbors.
		if hasNorth {
			sendList(north, cells[lo])
		}
		if hasSouth {
			sendList(south, cells[hi-1])
		}
		var ghostLeft, ghostRight []Particle
		if hasNorth {
			ghostLeft = t.Recv(north).([]Particle)
		}
		if hasSouth {
			ghostRight = t.Recv(south).([]Particle)
		}
		// Force + move, charging the actual (non-uniform) operation count.
		moved, ops := step(cells, lo, hi, ghostLeft, ghostRight, cellWidth, s.Cells)
		t.Compute(ops, model.OpFloat)
		// Re-bin; emigrants leave for the neighbors.
		for c := lo; c < hi; c++ {
			cells[c] = cells[c][:0]
		}
		var toNorth, toSouth []Particle
		for _, p := range moved {
			c := s.CellOf(p.Pos)
			switch {
			case c < lo:
				toNorth = append(toNorth, p)
			case c >= hi:
				toSouth = append(toSouth, p)
			default:
				cells[c] = append(cells[c], p)
			}
		}
		if hasNorth {
			sendList(north, toNorth)
		}
		if hasSouth {
			sendList(south, toSouth)
		}
		if hasNorth {
			for _, p := range t.Recv(north).([]Particle) {
				cells[s.CellOf(p.Pos)] = append(cells[s.CellOf(p.Pos)], p)
			}
		}
		if hasSouth {
			for _, p := range t.Recv(south).([]Particle) {
				cells[s.CellOf(p.Pos)] = append(cells[s.CellOf(p.Pos)], p)
			}
		}
		for c := lo; c < hi; c++ {
			sort.Slice(cells[c], func(i, j int) bool { return cells[c][i].ID < cells[c][j].ID })
		}
	}
	var out []Particle
	for c := lo; c < hi; c++ {
		out = append(out, cells[c]...)
	}
	return out
}
