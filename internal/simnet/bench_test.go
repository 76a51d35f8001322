package simnet

import (
	"testing"

	"netpart/internal/model"
)

// BenchmarkSimnetAdvance measures the scheduler's steady state: one task
// charging compute with Advance. Each op parks, runs the event loop, finds
// the task itself due and keeps running — no channel operation and no
// allocation (the event struct comes off the free list).
func BenchmarkSimnetAdvance(b *testing.B) {
	s, err := New(model.PaperTestbed())
	if err != nil {
		b.Fatal(err)
	}
	s.Spawn("t", model.Sparc2Cluster, func(p *Proc) {
		p.Advance(1) // put an event struct on the free list
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
		b.StopTimer()
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
