package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netpart/internal/analysis"
	"netpart/internal/analysis/protomc"
)

// jsonRecord mirrors record's wire form for decoding NDJSON output.
type jsonRecord struct {
	Protocol  string                `json:"protocol"`
	P         int                   `json:"p"`
	Sem       string                `json:"semantics"`
	Capacity  int                   `json:"capacity"`
	States    int                   `json:"states"`
	MaxQ      int                   `json:"max_in_flight"`
	Assign    string                `json:"assign"`
	Fn        string                `json:"fn"`
	Violation *protomc.Violation    `json:"violation"`
	Replay    *protomc.ReplayReport `json:"replay"`
	ReplayErr string                `json:"replay_error"`
}

// runJSON invokes the command with -json and decodes every record.
func runJSON(t *testing.T, args ...string) (int, []jsonRecord) {
	t.Helper()
	var buf bytes.Buffer
	code := run(append([]string{"-json"}, args...), &buf)
	var recs []jsonRecord
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var r jsonRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decoding NDJSON: %v", err)
		}
		recs = append(recs, r)
	}
	return code, recs
}

// TestRealProtocolsProved is the acceptance run: every lockstep protocol
// in the module — the halo exchange, the repartitioning decision round,
// the migration plans, and the FT recovery round — must be deadlock-free
// and message-conserving at every P in 2..5 under both rendezvous and
// bounded-buffer semantics.
func TestRealProtocolsProved(t *testing.T) {
	if testing.Short() {
		t.Skip("explores the full module state space")
	}
	code, recs := runJSON(t, "-p", "5")
	if code != 0 {
		for _, r := range recs {
			if r.Violation != nil {
				t.Errorf("%s P=%d %s [%s]: %s", r.Protocol, r.P, r.Sem, r.Assign, r.Violation)
			}
		}
		t.Fatalf("exit code = %d, want 0", code)
	}
	wantProtos := map[string]bool{
		"stencil.liveRank.haloCycles": false,
		"repart.Engine.Round":         false,
		"repart.Migrator.Migrate":     false,
		"stencil.ftTask.recover":      false,
	}
	perP := map[string]map[int]map[string]bool{}
	for _, r := range recs {
		name := strings.NewReplacer("(", "", ")", "", "*", "").Replace(r.Fn)
		if _, ok := wantProtos[name]; ok {
			wantProtos[name] = true
			if perP[name] == nil {
				perP[name] = map[int]map[string]bool{}
			}
			if perP[name][r.P] == nil {
				perP[name][r.P] = map[string]bool{}
			}
			perP[name][r.P][r.Sem] = true
		}
	}
	for name, seen := range wantProtos {
		if !seen {
			t.Errorf("protocol %s was not verified", name)
			continue
		}
		for p := 2; p <= 5; p++ {
			for _, sem := range []string{"rendezvous", "buffered"} {
				if !perP[name][p][sem] {
					t.Errorf("%s missing a check at P=%d under %s", name, p, sem)
				}
			}
		}
	}
}

// fixturePattern addresses the seeded-bug package relative to the module
// root, which the loader resolves from any working directory.
const fixturePattern = "./cmd/netpartverify/testdata/protofix"

// TestSeededUnmatchedSend finds the conditional-send bug at the smallest
// world: a deadlock whose schedule is the single branch step that skips
// the send, confirmed by simnet replay.
func TestSeededUnmatchedSend(t *testing.T) {
	code, recs := runJSON(t, "-p", "2", fixturePattern)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	found := false
	for _, r := range recs {
		if !strings.Contains(r.Protocol, "UnmatchedSend") || r.Violation == nil {
			continue
		}
		found = true
		v := r.Violation
		if v.Kind != "deadlock" {
			t.Errorf("kind = %s, want deadlock", v.Kind)
		}
		if len(v.Steps) != 1 || v.Steps[0].Action != "branch" {
			t.Errorf("schedule not minimal: %v", v.Steps)
		}
		if r.Replay == nil || !r.Replay.Confirmed {
			t.Errorf("replay did not confirm: %+v (err %q)", r.Replay, r.ReplayErr)
		}
	}
	if !found {
		t.Fatal("UnmatchedSend produced no violation")
	}
}

// TestSeededRecvCycle requires the cycle to be invisible at P=2 and a
// confirmed deadlock at P=3: a checker that stops at the smallest world
// would pass this protocol.
func TestSeededRecvCycle(t *testing.T) {
	code, recs := runJSON(t, "-p", "3", fixturePattern)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	at := map[int]bool{}
	for _, r := range recs {
		if !strings.Contains(r.Protocol, "RecvCycle") {
			continue
		}
		if r.Violation != nil {
			at[r.P] = true
			if r.Violation.Kind != "deadlock" {
				t.Errorf("P=%d kind = %s, want deadlock", r.P, r.Violation.Kind)
			}
			if r.Replay == nil || !r.Replay.Confirmed {
				t.Errorf("P=%d replay did not confirm: %+v", r.P, r.Replay)
			}
			for _, b := range r.Violation.Blocked {
				if !strings.Contains(b, "receiving") {
					t.Errorf("blocked rank is not receive-blocked: %s", b)
				}
			}
		}
	}
	if at[2] {
		t.Error("RecvCycle violated at P=2; the cycle must need three ranks")
	}
	if !at[3] {
		t.Error("RecvCycle produced no violation at P=3")
	}
}

// TestSeededDoubleSend requires the buffer-exhaustion deadlock at
// capacity 1 under both semantics, and a clean buffered pass at capacity
// 2 whose max-in-flight report shows why 2 suffices.
func TestSeededDoubleSend(t *testing.T) {
	code, recs := runJSON(t, "-p", "2", fixturePattern)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	bySem := map[string]*jsonRecord{}
	for i, r := range recs {
		if strings.Contains(r.Protocol, "DoubleSend") && r.P == 2 {
			bySem[r.Sem] = &recs[i]
		}
	}
	for _, sem := range []string{"rendezvous", "buffered"} {
		r := bySem[sem]
		if r == nil || r.Violation == nil {
			t.Errorf("no violation under %s", sem)
			continue
		}
		if r.Violation.Kind != "deadlock" {
			t.Errorf("%s kind = %s, want deadlock", sem, r.Violation.Kind)
		}
		if r.Replay == nil || !r.Replay.Confirmed {
			t.Errorf("%s replay did not confirm: %+v", sem, r.Replay)
		}
		if sem == "buffered" && len(r.Replay.BlockedSends) != 2 {
			t.Errorf("blocked sends = %v, want both ranks", r.Replay.BlockedSends)
		}
	}

	// Capacity 2 is sufficient: the buffered check passes and reports the
	// occupancy bound that proves it tight.
	code, recs = runJSON(t, "-p", "2", "-sem", "buffered", "-cap", "2", fixturePattern)
	for _, r := range recs {
		if strings.Contains(r.Protocol, "DoubleSend") {
			if r.Violation != nil {
				t.Errorf("capacity 2 still violates: %s", r.Violation)
			}
			if r.MaxQ != 2 {
				t.Errorf("max_in_flight = %d, want 2", r.MaxQ)
			}
		}
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (the other fixtures still fail)", code)
	}
}

// TestTraceDir writes counterexample trace files for artifact upload: one
// JSON file per violation, each holding the schedule and replay report.
func TestTraceDir(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	code := run([]string{"-p", "2", "-trace-dir", dir, fixturePattern}, &buf)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no trace files written")
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var r jsonRecord
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if r.Violation == nil {
			t.Errorf("%s: trace has no violation", e.Name())
		}
	}
}

// TestUsageErrors exercises the exit-2 paths.
func TestUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-sem", "psychic"}, &buf); code != 2 {
		t.Errorf("bad -sem: exit %d, want 2", code)
	}
	if code := run([]string{"-p", "1"}, &buf); code != 2 {
		t.Errorf("bad -p: exit %d, want 2", code)
	}
}

// TestUnknownBuiltinModel rejects a directive naming a model the command
// does not implement, instead of verifying nothing vacuously.
func TestUnknownBuiltinModel(t *testing.T) {
	if _, err := builtinSystems("no-such-model", 3); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// BenchmarkProtoVerify measures the exhaustive check of every builtin and
// extracted protocol instance at P=4 under both semantics — the unit CI's
// latency ceiling in BENCH_policy.json guards. Extraction runs once
// outside the loop: the checker, not the loader, is the hot path.
func BenchmarkProtoVerify(b *testing.B) {
	cwd, err := os.Getwd()
	if err != nil {
		b.Fatal(err)
	}
	root, modPath, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		b.Fatal(err)
	}
	loader := analysis.NewLoader(root, modPath)
	pkgs, err := loader.Load("./...")
	if err != nil {
		b.Fatal(err)
	}
	protos, diags := analysis.ExtractProtos(pkgs, loader.Interproc())
	if len(diags) > 0 {
		b.Fatalf("extraction diagnostics: %v", diags)
	}
	var systems []*protomc.System
	for _, lp := range protos {
		var batch []*protomc.System
		if lp.Model != "" {
			batch, err = builtinSystems(lp.Model, 4)
		} else {
			batch, err = protomc.InstantiateAll(lp.Proto, 4)
		}
		if err != nil {
			b.Fatal(err)
		}
		systems = append(systems, batch...)
	}
	if len(systems) == 0 {
		b.Fatal("no systems to check")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range systems {
			for _, sem := range []protomc.Semantics{protomc.Rendezvous, protomc.Buffered} {
				res, err := protomc.Check(sys, protomc.Config{Sem: sem})
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatalf("%s: %s", sys.Name, res.Violation)
				}
			}
		}
	}
}
