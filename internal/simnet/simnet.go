// Package simnet is a deterministic discrete-event simulator of the
// paper's heterogeneous network substrate: shared-channel ethernet segments
// that serialize frame transmissions (so contention grows linearly with the
// number of stations, as the paper observes), a store-and-forward router
// joining segments with a per-byte delay, per-byte data coercion between
// clusters of different formats, and host send/receive processing costs.
//
// Simulated tasks are goroutines that hand control to each other directly:
// exactly one task runs at a time, and tasks advance the virtual clock by
// blocking in Advance, Send, and Recv. A task that blocks runs the event
// loop itself, on its own goroutine, until the next task is due, then
// resumes that task with one channel send and waits to be resumed in turn
// (no switch at all when the due task is itself). Run only starts the
// loop and waits for the queue to drain; before it returns it releases
// every task left blocked (deadlock), so no goroutine outlives the run.
// Runs are fully deterministic — the event queue is ordered by (virtual
// time, sequence number) and the simulation uses no wall-clock time or
// randomness.
//
// Why this produces Eq. 1 costs: a message of b bytes from a cluster with
// per-message channel occupancy σ (model.Cluster.MsgOverheadMs) and host
// per-byte processing h (HostPerByteMs) on a segment of rate R
// (BytesPerMs) holds the shared channel for σ + b·(1/R + h). A synchronous
// 1-D exchange among p stations serializes 2(p-1) such holds, giving a
// cycle time with latency slope 2σ per processor and bandwidth slope
// 2·(1/R + h) per byte per processor — exactly the c2·p and c4·p·b terms
// the paper fits.
//
//netpart:deterministic
package simnet

import (
	"fmt"
	"sort"

	"netpart/internal/faults"
	"netpart/internal/model"
)

// CPU costs of initiating an asynchronous send and of consuming a received
// message, in milliseconds. These are deliberately small: the dominant
// per-message cost is the channel occupancy σ, which is what the paper's
// latency constants capture.
const (
	SendCPUMs = 0.05
	RecvCPUMs = 0.05
)

// event is one scheduled action. Every event the substrate itself
// schedules is closure-free — a task wake-up, a RecvWithin deadline, and
// the two legs of a message's transit carry their operands here — so the
// scheduler recycles event structs through a free list instead of
// allocating one struct plus one closure per event. Only the fault
// injector's retry and delay steps schedule closures (fn).
type event struct {
	at   float64
	seq  int64
	kind eventKind
	// p is the task to resume (evWake, evTimeout) or the message's
	// destination (evRoute, evDeliver).
	p   *Proc
	msg *Message // evRoute, evDeliver
	gen uint64   // evTimeout: the wait generation the deadline was armed for
	fn  func()   // evFunc
}

type eventKind uint8

const (
	evWake    eventKind = iota // resume p
	evTimeout                  // resume p if it is still in wait gen
	evRoute                    // msg leaves the router: queue on p's segment
	evDeliver                  // msg reaches p's mailbox
	evFunc                     // run fn
)

// maxFreeEvents bounds the event free list. The live set of events is
// proportional to tasks plus in-flight messages, so the pool's high-water
// mark is small; the cap only guards against a pathological burst pinning
// memory forever.
const maxFreeEvents = 4096

// eventHeap is a binary min-heap of events in (at, seq) order. It is
// typed rather than built on container/heap so that every sift step
// compares inline instead of through interface calls. Sequence numbers
// are unique, so the order is total and the pop sequence is the same for
// any correct heap.
type eventHeap []*event

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

//netpart:hotpath
func (h *eventHeap) push(ev *event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the earliest event; h must not be empty.
//
//netpart:hotpath
func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// segment tracks the shared channel of one network segment as a FIFO
// resource: transmissions are served in arrival order, each holding the
// channel for its full occupancy.
type segment struct {
	spec   *model.Segment
	freeAt float64
	// Stats.
	busyMs   float64
	messages int64
	bytes    int64
}

// Message is a delivered payload. Bytes is the message size; Payload is an
// optional application value carried through the simulation (e.g. border
// rows), not charged against the network.
type Message struct {
	From    *Proc
	Bytes   int
	Payload interface{}
	// SentAt and DeliveredAt are virtual times in milliseconds.
	SentAt      float64
	DeliveredAt float64
}

// Sim is one simulation instance bound to a network model.
type Sim struct {
	net      *model.Network
	segments map[string]*segment
	now      float64
	seq      int64
	events   eventHeap
	free     []*event // recycled event structs (see event)
	procs    []*Proc
	running  bool
	// idle is how the loop tells Run that the queue drained (or, while
	// releasing, that a task finished unwinding).
	idle chan struct{}
	// releasing is set while Run unwinds the tasks a deadlock left
	// blocked: a released task panics out of park instead of re-entering
	// the loop.
	releasing bool

	// jitterFrac > 0 scales every channel hold by a deterministic
	// pseudo-random factor in [1-f, 1+f], modeling the paper's observation
	// that UDP communication costs are nondeterministic and the fitted
	// functions are averages. Zero disables (fully deterministic).
	jitterFrac float64
	rngState   uint64

	// onDeliver, when non-nil, observes every message at delivery time.
	onDeliver func(Delivery)

	// inj, when non-nil, decides per-message fates (drop → retransmit
	// after injRtoMs, delay → later transmission); see WithFaultInjector.
	inj        faults.Injector
	injRtoMs   float64
	injStreams map[[2]int]*injStream
}

// injStream serializes fault-injected transmissions per (src, dst) pair,
// emulating a reliable in-order transport: at most one message is in its
// loss/retry phase at a time, and successors wait behind it. A dropped
// head therefore delays everything after it (head-of-line blocking), so
// injected loss costs latency without ever reordering delivery.
type injStream struct {
	queue []*injPending
	busy  bool
}

type injPending struct {
	msg  *Message
	from *model.Cluster
	dst  *Proc
}

// Delivery describes one delivered message for observers: who sent it,
// who received it, its size, and its full virtual-time transit interval
// (send initiation to mailbox arrival, including channel and router
// queueing).
type Delivery struct {
	From, To      *Proc
	Bytes         int
	SentAtMs      float64
	DeliveredAtMs float64
}

// Option configures a simulation.
type Option func(*Sim)

// WithJitter makes channel occupancy times vary by up to ±frac around
// their nominal values, driven by a seeded xorshift generator — still
// fully reproducible for a given seed, but no longer exactly linear, so
// least-squares fits become genuine averages (Section 3.0's "average
// case" caveat).
func WithJitter(frac float64, seed uint64) Option {
	return func(s *Sim) {
		s.jitterFrac = frac
		s.rngState = seed | 1
	}
}

// WithMessageObserver registers fn to be called at every message delivery
// with the message's transit record. Observers let higher layers (spmd)
// build latency histograms without the simulator depending on them; fn
// runs inside the event loop (on whichever goroutine holds control) and
// must not block.
func WithMessageObserver(fn func(Delivery)) Option {
	return func(s *Sim) { s.onDeliver = fn }
}

// simMaxRetries bounds injected-drop retransmissions per message; a
// message dropped more often is lost, and the blocked receiver shows up
// in Run's deadlock report instead of the run hanging.
const simMaxRetries = 200

// WithFaultInjector routes every simulated message through a fault
// injector, emulating a reliable transport over a faulty network in
// virtual time: a dropped message is retransmitted retransmitMs later
// (re-consulting the injector, so healed partitions resume delivery), a
// delayed message transits late, and duplicates are suppressed. Runs stay
// fully deterministic for a deterministic injector.
func WithFaultInjector(inj faults.Injector, retransmitMs float64) Option {
	return func(s *Sim) {
		s.inj = inj
		s.injRtoMs = retransmitMs
		if s.injRtoMs <= 0 {
			s.injRtoMs = 1
		}
	}
}

// jitterMul returns the next hold-time multiplier.
func (s *Sim) jitterMul() float64 {
	if s.jitterFrac <= 0 {
		return 1
	}
	// xorshift64
	x := s.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rngState = x
	u := float64(x>>11) / float64(1<<53) // [0,1)
	return 1 + s.jitterFrac*(2*u-1)
}

// New creates a simulation over the given validated network.
func New(net *model.Network, opts ...Option) (*Sim, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		net:        net,
		segments:   make(map[string]*segment, len(net.Segments)),
		idle:       make(chan struct{}),
		injStreams: make(map[[2]int]*injStream),
	}
	for _, seg := range net.Segments {
		s.segments[seg.Name] = &segment{spec: seg}
	}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Now returns the current virtual time in milliseconds.
func (s *Sim) Now() float64 { return s.now }

// alloc takes an event struct off the free list (or allocates one),
// stamped with the clamped time and the next sequence number.
//
//netpart:hotpath
func (s *Sim) alloc(at float64) *event {
	if at < s.now {
		at = s.now
	}
	s.seq++
	if len(s.free) == 0 {
		return &event{at: at, seq: s.seq}
	}
	n := len(s.free)
	ev := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	ev.at = at
	ev.seq = s.seq
	return ev
}

// schedule queues fn at virtual time at (clamped to now).
func (s *Sim) schedule(at float64, fn func()) {
	ev := s.alloc(at)
	ev.kind, ev.fn = evFunc, fn
	s.events.push(ev)
}

// scheduleEvent queues a closure-free event of the given kind at virtual
// time at (clamped to now).
//
//netpart:hotpath
func (s *Sim) scheduleEvent(at float64, kind eventKind, p *Proc, msg *Message) {
	ev := s.alloc(at)
	ev.kind, ev.p, ev.msg = kind, p, msg
	s.events.push(ev)
}

// scheduleWake queues a bare resume of p at virtual time at (clamped to
// now) — the path of every Advance and delivery wake-up.
//
//netpart:hotpath
func (s *Sim) scheduleWake(at float64, p *Proc) {
	s.scheduleEvent(at, evWake, p, nil)
}

// next runs the event loop on the calling goroutine until a task is due,
// and returns it; nil means the queue drained. Message transit and
// fault-injection closures run inline here.
//
//netpart:hotpath
func (s *Sim) next() *Proc {
	for len(s.events) > 0 {
		ev := s.events.pop()
		s.now = ev.at
		// Recycle before dispatch: the action's fields are copied out, so
		// anything the action schedules may reuse this struct immediately.
		kind, p, msg, gen, fn := ev.kind, ev.p, ev.msg, ev.gen, ev.fn
		*ev = event{}
		if len(s.free) < maxFreeEvents {
			s.free = append(s.free, ev)
		}
		switch kind {
		case evWake:
			return p
		case evTimeout:
			// Resume the task only if it is still in this exact wait.
			if !p.done && p.waitGen == gen && p.waitingOn >= 0 {
				p.waitingOn = -1
				return p
			}
		case evRoute:
			s.route(msg, p)
		case evDeliver:
			s.deliver(msg, p)
		}
		if fn != nil {
			fn() // fault-injection retry or delayed transmission
		}
	}
	return nil
}

// handoff passes control to next (nil: tells Run the queue drained).
func (s *Sim) handoff(next *Proc) {
	if next == nil {
		s.idle <- struct{}{}
		return
	}
	next.resume <- struct{}{}
}

// Proc is one simulated task: a goroutine that advances only in virtual
// time. All Proc methods must be called from within the task body.
type Proc struct {
	sim      *Sim
	name     string
	cluster  *model.Cluster
	rank     int
	resume   chan struct{}
	done     bool
	panicked error

	// mailboxes holds queued messages per sender rank (indexed by rank;
	// sized once in Run, when the rank count is final).
	mailboxes []mailbox
	// waitingOn is the sender rank a blocked Recv is waiting for, or -1.
	waitingOn int
	// waitGen increments at every blocking wait, so a RecvWithin deadline
	// event can tell whether the wait it armed for is still the current
	// one (and not a later wait on the same sender).
	waitGen uint64

	// Stats.
	computeMs     float64
	sent          int64
	received      int64
	bytesSent     int64
	bytesReceived int64
}

// mailbox is the FIFO of messages from one sender. Receiving advances
// head instead of reslicing, and a drained queue rewinds to q[:0], so
// lockstep traffic (depth 0–1) keeps reusing one backing array instead of
// reallocating on every delivery.
type mailbox struct {
	q    []*Message
	head int
}

func (mb *mailbox) empty() bool { return mb.head == len(mb.q) }

// pop removes and returns the oldest message; mb must not be empty.
func (mb *mailbox) pop() *Message {
	msg := mb.q[mb.head]
	mb.q[mb.head] = nil
	mb.head++
	if mb.head == len(mb.q) {
		mb.q, mb.head = mb.q[:0], 0
	}
	return msg
}

// Rank returns the task's rank (spawn order).
func (p *Proc) Rank() int { return p.rank }

// Name returns the task's name.
func (p *Proc) Name() string { return p.name }

// Cluster returns the cluster hosting the task.
func (p *Proc) Cluster() *model.Cluster { return p.cluster }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.sim.now }

// Spawn creates a task on the named cluster. The body runs when Run is
// called. Spawn panics on an unknown cluster (a programming error).
func (s *Sim) Spawn(name, cluster string, body func(*Proc)) *Proc {
	if s.running {
		panic("simnet: Spawn during Run")
	}
	c := s.net.Cluster(cluster)
	if c == nil {
		panic(fmt.Sprintf("simnet: unknown cluster %q", cluster))
	}
	p := &Proc{
		sim:       s,
		name:      name,
		cluster:   c,
		rank:      len(s.procs),
		resume:    make(chan struct{}),
		waitingOn: -1,
	}
	s.procs = append(s.procs, p)
	go s.runTask(p, body)
	s.scheduleWake(0, p)
	return p
}

// released is the panic value that unwinds a task Run releases after a
// deadlock; runTask recovers it.
type released struct{}

// runTask is a task's goroutine: it waits for its first dispatch, runs
// the body, and hands control on when the body returns or panics.
func (s *Sim) runTask(p *Proc, body func(*Proc)) {
	<-p.resume
	defer func() {
		if r := recover(); r != nil && !s.releasing {
			p.panicked = fmt.Errorf("simnet: task %s panicked: %v", p.name, r)
		}
		p.done = true
		if s.releasing {
			s.idle <- struct{}{}
			return
		}
		s.handoff(s.next())
	}()
	body(p)
}

// park suspends the calling task: it runs the event loop until a task is
// due, keeps running if that task is itself, and otherwise resumes it and
// waits for its own turn.
//
//netpart:hotpath
func (p *Proc) park() {
	s := p.sim
	if s.releasing {
		panic(released{}) // a deferred call of a released task must not re-enter the loop
	}
	next := s.next()
	if next == p {
		return
	}
	s.handoff(next)
	<-p.resume
	if s.releasing {
		panic(released{})
	}
}

// Run executes the simulation until no events remain. It returns an error
// if any task panicked or is still blocked (deadlock) when the event queue
// drains. Blocked tasks are then released: each unwinds, running its
// deferred calls, and any simulated operation a deferred call attempts
// panics straight out again, so Run returns with no task goroutine left.
func (s *Sim) Run() error {
	if s.running {
		return fmt.Errorf("simnet: Run reentered")
	}
	s.running = true
	defer func() { s.running = false }()
	// Size every task's per-sender mailbox table once: Spawn is forbidden
	// during Run, so the rank count is final here and delivery indexes the
	// slice directly with no map hashing and no growth.
	for _, p := range s.procs {
		if len(p.mailboxes) < len(s.procs) {
			grown := make([]mailbox, len(s.procs))
			copy(grown, p.mailboxes)
			p.mailboxes = grown
		}
	}
	if first := s.next(); first != nil {
		first.resume <- struct{}{}
		<-s.idle
	}
	err := s.result()
	s.release()
	return err
}

// result reports the first panicked task in rank order, else the tasks
// still blocked when the queue drained.
func (s *Sim) result() error {
	var stuck []string
	for _, p := range s.procs {
		if p.panicked != nil {
			return p.panicked
		}
		if !p.done {
			stuck = append(stuck, fmt.Sprintf("%s (recv from rank %d)", p.name, p.waitingOn))
		}
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return fmt.Errorf("simnet: deadlock, %d tasks blocked: %v", len(stuck), stuck)
	}
	return nil
}

// release unwinds every task still blocked in park, one at a time, so a
// deadlocked run leaves no goroutine behind, then drops whatever the
// unwinding scheduled.
func (s *Sim) release() {
	s.releasing = true
	for _, p := range s.procs {
		if !p.done {
			p.resume <- struct{}{}
			<-s.idle
		}
	}
	s.releasing = false
	clear(s.events)
	s.events = s.events[:0]
}

// Advance spends ms milliseconds of virtual time computing.
//
//netpart:hotpath
func (p *Proc) Advance(ms float64) {
	if ms < 0 {
		panic("simnet: negative advance")
	}
	p.computeMs += ms
	s := p.sim
	s.scheduleWake(s.now+ms, p)
	p.park()
}

// AdvanceOps spends the virtual time of executing n operations of the given
// class at this task's cluster speed.
func (p *Proc) AdvanceOps(n float64, class model.OpClass) {
	p.Advance(n * p.cluster.OpTime(class))
}

// Send asynchronously transmits a message of the given size to dst. The
// sender is charged a small CPU initiation cost (plus per-byte coercion if
// the destination cluster uses a different data format); the transmission
// itself then serializes through the shared channel(s) and router without
// blocking the sender.
func (p *Proc) Send(dst *Proc, bytes int, payload interface{}) {
	if bytes < 0 {
		panic(fmt.Sprintf("simnet: negative message size %d", bytes))
	}
	s := p.sim
	cpu := SendCPUMs
	if p.cluster.Format != dst.cluster.Format {
		cpu += s.net.Coerce.PerByteMs * float64(bytes)
	}
	p.sent++
	p.bytesSent += int64(bytes)
	msg := &Message{From: p, Bytes: bytes, Payload: payload, SentAt: s.now + cpu}
	// CPU initiation happens inline; the transmission is scheduled at its
	// completion.
	p.Advance(cpu)
	s.transmit(msg, p.cluster, dst)
}

// transmit routes one message: straight through the substrate, or through
// the fault injector's reliable-stream emulation when one is configured.
func (s *Sim) transmit(msg *Message, from *model.Cluster, dst *Proc) {
	if s.inj == nil {
		s.transmitClean(msg, from, dst)
		return
	}
	key := [2]int{msg.From.rank, dst.rank}
	st := s.injStreams[key]
	if st == nil {
		st = &injStream{}
		s.injStreams[key] = st
	}
	st.queue = append(st.queue, &injPending{msg: msg, from: from, dst: dst})
	if !st.busy {
		s.injPump(st)
	}
}

// injPump starts the loss/retry phase for the stream head. Only one
// message per (src, dst) pair is in this phase at a time: that is what
// makes injected drops cost wall time — every retransmission RTO pushes
// back the head's entry into the channel and, transitively, every
// successor's.
func (s *Sim) injPump(st *injStream) {
	if len(st.queue) == 0 {
		st.busy = false
		return
	}
	st.busy = true
	p := st.queue[0]
	st.queue = st.queue[1:]
	s.injAttempt(st, p, 0)
}

// injAttempt consults the injector for one transmission attempt of the
// stream head. Injected drops model a lost datagram: the reliability
// layer retries one RTO later, so the drop costs latency, never data.
// Injected delays add transit time; duplicates are suppressed (reliable
// delivery semantics). A message dropped past simMaxRetries is lost and
// stalls its stream, surfacing as a blocked receiver in Run's deadlock
// report — the behavior of a reliable transport over a dead link.
func (s *Sim) injAttempt(st *injStream, p *injPending, attempt int) {
	fate := s.inj.Packet(p.msg.From.rank, p.dst.rank, s.now)
	switch {
	case fate.Drop:
		if attempt >= simMaxRetries {
			return // lost: stream stalls, Run reports the blocked receiver
		}
		s.schedule(s.now+s.injRtoMs, func() { s.injAttempt(st, p, attempt+1) })
	case fate.DelayMs > 0:
		s.schedule(s.now+fate.DelayMs, func() {
			s.transmitClean(p.msg, p.from, p.dst)
			s.injPump(st)
		})
	default:
		s.transmitClean(p.msg, p.from, p.dst)
		s.injPump(st)
	}
}

// transmitClean pushes msg through the sender's segment, then (if needed)
// the router and the destination segment, and finally delivers it.
func (s *Sim) transmitClean(msg *Message, from *model.Cluster, dst *Proc) {
	b := float64(msg.Bytes)
	src := s.segments[from.Segment]
	hold := (from.MsgOverheadMs + b*(1/src.spec.BytesPerMs+from.HostPerByteMs)) * s.jitterMul()
	doneSrc := src.acquire(s.now, hold)
	src.messages++
	src.bytes += int64(msg.Bytes)

	if from.Segment == dst.cluster.Segment {
		s.scheduleEvent(doneSrc, evDeliver, dst, msg)
		return
	}
	// Store-and-forward through the router, then the destination segment.
	routed := doneSrc + s.net.Router.PerMessageMs + s.net.Router.PerByteMs*b
	s.scheduleEvent(routed, evRoute, dst, msg)
}

// route queues msg, just out of the router, on dst's segment.
//
//netpart:hotpath
func (s *Sim) route(msg *Message, dst *Proc) {
	b := float64(msg.Bytes)
	dseg := s.segments[dst.cluster.Segment]
	dhold := (dst.cluster.MsgOverheadMs + b*(1/dseg.spec.BytesPerMs+dst.cluster.HostPerByteMs)) * s.jitterMul()
	doneDst := dseg.acquire(s.now, dhold)
	dseg.messages++
	dseg.bytes += int64(msg.Bytes)
	s.scheduleEvent(doneDst, evDeliver, dst, msg)
}

// acquire reserves the channel FIFO for hold ms starting no earlier than
// now, returning the completion time.
func (seg *segment) acquire(now, hold float64) float64 {
	start := now
	if seg.freeAt > start {
		start = seg.freeAt
	}
	seg.freeAt = start + hold
	seg.busyMs += hold
	return seg.freeAt
}

// deliver places msg in dst's mailbox and wakes dst if it is blocked on a
// matching Recv.
func (s *Sim) deliver(msg *Message, dst *Proc) {
	msg.DeliveredAt = s.now
	dst.bytesReceived += int64(msg.Bytes)
	if s.onDeliver != nil {
		s.onDeliver(Delivery{
			From: msg.From, To: dst, Bytes: msg.Bytes,
			SentAtMs: msg.SentAt, DeliveredAtMs: msg.DeliveredAt,
		})
	}
	from := msg.From.rank
	mb := &dst.mailboxes[from]
	mb.q = append(mb.q, msg)
	if dst.waitingOn == from {
		dst.waitingOn = -1
		s.scheduleWake(s.now, dst)
	}
}

// Recv blocks until a message from src is available, consumes it (charging
// the receive CPU cost), and returns it. Messages from the same sender are
// received in transmission order.
func (p *Proc) Recv(src *Proc) *Message {
	mb := &p.mailboxes[src.rank]
	for mb.empty() {
		p.waitingOn = src.rank
		p.waitGen++
		p.park()
	}
	return p.consume(mb)
}

// consume takes the oldest message of a non-empty mailbox, charging the
// receive CPU cost.
func (p *Proc) consume(mb *mailbox) *Message {
	msg := mb.pop()
	p.received++
	p.Advance(RecvCPUMs)
	return msg
}

// RecvWithin is Recv bounded by a virtual-time deadline: it blocks until
// a message from src is available or ms milliseconds of virtual time
// elapse, returning (nil, false) on timeout. Failure detectors build on
// it: unlike Recv, a dead sender costs bounded virtual time instead of a
// deadlock.
func (p *Proc) RecvWithin(src *Proc, ms float64) (*Message, bool) {
	mb := &p.mailboxes[src.rank]
	if !mb.empty() {
		return p.consume(mb), true
	}
	s := p.sim
	p.waitingOn = src.rank
	p.waitGen++
	ev := s.alloc(s.now + ms)
	ev.kind, ev.p, ev.gen = evTimeout, p, p.waitGen
	s.events.push(ev)
	p.park()
	if mb.empty() {
		return nil, false
	}
	return p.consume(mb), true
}

// TryRecv consumes a pending message from src without blocking, returning
// nil if none is queued.
func (p *Proc) TryRecv(src *Proc) *Message {
	mb := &p.mailboxes[src.rank]
	if mb.empty() {
		return nil
	}
	return p.consume(mb)
}

// SegmentStats reports channel usage for one segment.
type SegmentStats struct {
	Name     string
	BusyMs   float64
	Messages int64
	Bytes    int64
}

// Stats returns per-segment channel usage, sorted by segment name.
func (s *Sim) Stats() []SegmentStats {
	out := make([]SegmentStats, 0, len(s.segments))
	for name, seg := range s.segments {
		out = append(out, SegmentStats{
			Name: name, BusyMs: seg.busyMs, Messages: seg.messages, Bytes: seg.bytes,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ProcStats reports one task's activity.
type ProcStats struct {
	Name          string
	Cluster       string
	ComputeMs     float64
	Sent          int64
	Received      int64
	BytesSent     int64
	BytesReceived int64
}

// ProcStats returns per-task activity in rank order.
func (s *Sim) ProcStats() []ProcStats {
	out := make([]ProcStats, 0, len(s.procs))
	for _, p := range s.procs {
		out = append(out, ProcStats{
			Name: p.name, Cluster: p.cluster.Name,
			ComputeMs: p.computeMs, Sent: p.sent, Received: p.received,
			BytesSent: p.bytesSent, BytesReceived: p.bytesReceived,
		})
	}
	return out
}
