package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one benchmark
// call share Call; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Call   int    `json:"call"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced runs share the call code.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock: nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span and returns it; close records it.
func (t *tracer) open(name string, parent int64, call int) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.nextID.Add(1), Parent: parent, Call: call, Name: name, Start: t.now()}
}

func (t *tracer) close(s span) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.add(s)
}

// add records finished spans (the transport decorator hands over its
// per-rank buffer in one call).
func (t *tracer) add(ss ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// selfTimes returns, per span name, the total duration and the self time:
// each span's duration minus the part of it its children cover (children
// from concurrent ranks may overlap; their union is subtracted).
func (t *tracer) selfTimes() map[string][2]int64 {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][2]int64{}
	for _, s := range t.spans {
		covered := int64(0)
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		curS, curE := int64(-1), int64(-1)
		for _, k := range ks {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > curE {
				covered += curE - curS
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		covered += curE - curS
		v := out[s.Name]
		v[0] += s.dur()
		v[1] += s.dur() - covered
		out[s.Name] = v
	}
	return out
}

// writeOut writes every span as one JSON line, followed by one summary
// line per span name with its count, total and self time, into dir.
func (t *tracer) writeOut(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return "", err
		}
	}
	counts := map[string]int{}
	for _, s := range t.spans {
		counts[s.Name]++
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		summary := map[string]any{"summary": n, "count": counts[n], "total_ns": self[n][0], "self_ns": self[n][1]}
		if err := enc.Encode(summary); err != nil {
			_ = f.Close() // the encode error is the one to report
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return "", err
	}
	return path, f.Close()
}
