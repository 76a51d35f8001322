package main

import (
	"time"

	"netpart/internal/mmps"
)

// timedTransport wraps an mmps.Transport from outside the program and
// records every Send, Recv and RecvAny as a span. Each rank's goroutine owns
// its endpoint, so the span buffer needs no lock; it is preallocated so
// that recording does not allocate on the path it measures.
type timedTransport struct {
	mmps.Transport
	tr     *tracer
	parent int64
	call   int
	ops    []span
	bytes  int64 // payload bytes sent
	errors int
}

// Span names of the transport operations.
const (
	spanSend = "mmps.Send"
	spanRecv = "mmps.Recv"
)

func newTimedTransport(inner mmps.Transport, tr *tracer, parent int64, call, expectedOps int) *timedTransport {
	return &timedTransport{Transport: inner, tr: tr, parent: parent, call: call, ops: make([]span, 0, expectedOps)}
}

func (t *timedTransport) record(name string, start int64, err error) {
	t.ops = append(t.ops, span{ID: t.tr.nextID.Add(1), Parent: t.parent, Call: t.call, Name: name, Start: start, End: t.tr.now()})
	if err != nil {
		t.errors++
	}
}

// Send times the wrapped Send.
func (t *timedTransport) Send(dst int, data []byte) error {
	start := t.tr.now()
	err := t.Transport.Send(dst, data)
	t.record(spanSend, start, err)
	if err == nil {
		t.bytes += int64(len(data))
	}
	return err
}

// Recv times the wrapped Recv, including the time it blocks.
func (t *timedTransport) Recv(src int) ([]byte, error) {
	start := t.tr.now()
	buf, err := t.Transport.Recv(src)
	t.record(spanRecv, start, err)
	return buf, err
}

// RecvAny times the wrapped RecvAny as a receive.
func (t *timedTransport) RecvAny(d time.Duration) (int, []byte, error) {
	start := t.tr.now()
	src, buf, err := t.Transport.RecvAny(d)
	t.record(spanRecv, start, err)
	return src, buf, err
}

// Recycle forwards delivered buffers to the wrapped transport's free list;
// without it the in-memory transport would allocate a buffer per Send.
func (t *timedTransport) Recycle(buf []byte) { mmps.Recycle(t.Transport, buf) }

// flush hands the recorded spans to the tracer.
func (t *timedTransport) flush() { t.tr.add(t.ops...) }
