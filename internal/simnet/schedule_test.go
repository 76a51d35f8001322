package simnet

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"netpart/internal/faults"
	"netpart/internal/model"
)

var update = flag.Bool("update", false, "rewrite testdata/schedule.golden from the current implementation")

// TestScheduleGolden pins the scheduler's event order: the full delivery
// transcript (who, to whom, how many bytes, sent and delivered virtual
// times), every task's ProcStats and the final clock of three scenarios
// must match testdata/schedule.golden byte for byte. Virtual times print
// at full float64 precision, so any change in the (at, seq) order events
// fire in — which changes channel queueing and with it the times — shows
// up here, not just nondeterminism between two runs of the same code.
// After an intended change, regenerate with
//
//	go test ./internal/simnet -run TestScheduleGolden -update
//
// and review the diff of testdata/.
func TestScheduleGolden(t *testing.T) {
	var out strings.Builder
	for _, sc := range []struct {
		name string
		run  func(t *testing.T, opts ...Option) *Sim
	}{
		{"cross-segment exchange with coercion", scheduleExchange},
		{"RecvWithin timeout then delivery", scheduleRecvWithin},
		{"fault injector drop and delay", scheduleFaulty},
	} {
		fmt.Fprintf(&out, "== %s\n", sc.name)
		s := sc.run(t, WithMessageObserver(func(d Delivery) {
			fmt.Fprintf(&out, "deliver %s -> %s %dB sent=%s at=%s\n",
				d.From.Name(), d.To.Name(), d.Bytes, ms(d.SentAtMs), ms(d.DeliveredAtMs))
		}))
		for _, ps := range s.ProcStats() {
			fmt.Fprintf(&out, "proc %s@%s compute=%s sent=%d/%dB received=%d/%dB\n",
				ps.Name, ps.Cluster, ms(ps.ComputeMs), ps.Sent, ps.BytesSent, ps.Received, ps.BytesReceived)
		}
		fmt.Fprintf(&out, "end %s\n", ms(s.Now()))
	}
	path := filepath.Join("testdata", "schedule.golden")
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("schedule transcript differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// ms prints a virtual time exactly (shortest round-tripping form).
func ms(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func runOrFatal(t *testing.T, s *Sim) *Sim {
	t.Helper()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// scheduleExchange runs a 1-D neighbour exchange across three segments
// and two data formats: every cross-format message pays coercion at the
// sender, every cross-segment one a router hop, and the shared channels
// queue the contending transmissions. Rank 0 computes through a Batch,
// the others through Advance, and the middle ranks drain their left
// mailbox with TryRecv when the message is already there.
func scheduleExchange(t *testing.T, opts ...Option) *Sim {
	s, err := New(model.Figure1Network(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	clusters := []string{"sun4", "sun4", "hp", "rs6000", "rs6000"}
	procs := make([]*Proc, len(clusters))
	for i, cl := range clusters {
		i := i
		procs[i] = s.Spawn(fmt.Sprintf("x%d", i), cl, func(p *Proc) {
			for iter := 0; iter < 3; iter++ {
				if i == 0 {
					b := p.BeginBatch()
					for row := 0; row < 4; row++ {
						b.AdvanceOps(700, model.OpFloat)
					}
					b.Flush()
				} else {
					p.AdvanceOps(float64(2000+500*i), model.OpFloat)
				}
				if i > 0 {
					p.Send(procs[i-1], 400+100*i, iter)
				}
				if i < len(procs)-1 {
					p.Send(procs[i+1], 900-100*i, iter)
				}
				if i > 0 {
					if p.TryRecv(procs[i-1]) == nil {
						p.Recv(procs[i-1])
					}
				}
				if i < len(procs)-1 {
					p.Recv(procs[i+1])
				}
			}
		})
	}
	return runOrFatal(t, s)
}

// scheduleRecvWithin has a detector time out on a silent peer, then
// receive within a second deadline, and leave a stale deadline armed
// while it blocks in a plain Recv on the same sender.
func scheduleRecvWithin(t *testing.T, opts ...Option) *Sim {
	s, err := New(model.PaperTestbed(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*Proc, 3)
	procs[0] = s.Spawn("late", model.Sparc2Cluster, func(p *Proc) {
		p.Advance(30)
		p.Send(procs[1], 300, "a")
		p.Advance(40)
		p.Send(procs[1], 300, "b")
	})
	procs[1] = s.Spawn("detector", model.IPCCluster, func(p *Proc) {
		if _, ok := p.RecvWithin(procs[0], 10); ok {
			t.Error("first RecvWithin should time out")
		}
		if _, ok := p.RecvWithin(procs[0], 100); !ok {
			t.Error("second RecvWithin should deliver")
		}
		p.Recv(procs[0])
		p.Send(procs[2], 50, nil)
	})
	procs[2] = s.Spawn("bystander", model.Sparc2Cluster, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Advance(7)
		}
		p.Recv(procs[1])
	})
	return runOrFatal(t, s)
}

// scriptedInjector drops and delays chosen packets by their per-pair
// sequence number (counting retransmissions), deterministically.
type scriptedInjector struct {
	n     map[[2]int]int
	drop  map[int]bool
	delay map[int]float64
}

func (in *scriptedInjector) Packet(src, dst int, _ float64) faults.Fate {
	k := [2]int{src, dst}
	in.n[k]++
	i := in.n[k]
	return faults.Fate{Drop: in.drop[i], DelayMs: in.delay[i]}
}
func (in *scriptedInjector) CrashCycle(int) int        { return -1 }
func (in *scriptedInjector) Slowdown(int, int) float64 { return 1 }

// scheduleFaulty streams messages both ways between two segments under
// an injector that drops the second packet of each direction twice
// (two retransmissions) and delays the fifth: head-of-line blocking
// holds every successor behind the dropped and delayed heads.
func scheduleFaulty(t *testing.T, opts ...Option) *Sim {
	inj := &scriptedInjector{
		n:     map[[2]int]int{},
		drop:  map[int]bool{2: true, 3: true},
		delay: map[int]float64{7: 3.5},
	}
	s, err := New(model.PaperTestbed(), append(opts, WithFaultInjector(inj, 4))...)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*Proc, 2)
	for i, cl := range []string{model.Sparc2Cluster, model.IPCCluster} {
		i := i
		procs[i] = s.Spawn(fmt.Sprintf("f%d", i), cl, func(p *Proc) {
			peer := procs[1-i]
			for k := 0; k < 6; k++ {
				p.Send(peer, 200+50*k, k)
				if k%2 == 1 {
					p.Advance(1.5)
				}
			}
			for k := 0; k < 6; k++ {
				if m := p.Recv(peer); m.Payload != k {
					t.Errorf("%s got %v, want %d", p.Name(), m.Payload, k)
				}
			}
		})
	}
	return runOrFatal(t, s)
}
