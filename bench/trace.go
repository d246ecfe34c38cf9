package main

// Bench-side tracing: timing decorators on the program's public seams
// (blockio.Store, cluster.Transport / A2AStream, cluster.Stats, the
// Source reader and the Sink), recording spans in memory. Nothing
// inside the program is instrumented — every span is the duration of
// one call across a seam, taken from outside.

import (
	"io"
	"sync"
	"time"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/vtime"
)

// kind names what a span timed. Phase spans carry kindPhase and their
// name in span.Phase; every other span is a leaf call made while
// span.Phase was the rank's accounting phase.
type kind uint8

const (
	kindRank kind = iota // worker's sort wall: tcp.New return → part file published
	kindBringup
	kindPhase
	kindPublish
	kindStoreRead
	kindStoreWrite
	kindA2A
	kindStreamPost
	kindStreamCollect
	kindBarrier
	kindAllGather
	kindBcast
	kindAllReduce
	kindExchangeAny
	kindSend
	kindRecv
	kindSourceRead
	kindSinkWrite
	numKinds
)

var kindNames = [numKinds]string{
	"rank", "tcp.New", "phase", "publish (flush+fsync+rename)",
	"Store.ReadAt", "Store.WriteAt",
	"AllToAllv", "A2AStream.Post", "A2AStream.Collect",
	"Barrier", "AllGather", "Bcast", "AllReduceInt64", "ExchangeAny",
	"Send", "Recv", "Source.Read", "Sink",
}

// span is one timed call. Start is wall-clock unix nanoseconds (the
// rank processes share a host, so their clocks line up in the merged
// trace); Dur comes from the monotonic clock.
type span struct {
	Kind  kind
	Phase string
	Start int64
	Dur   int64
	Bytes int64
}

func (s span) end() int64 { return s.Start + s.Dur }

// tracer collects one rank's spans. The program goroutine makes almost
// every call; the load phase's stage goroutine reads the Source
// concurrently, hence the lock.
type tracer struct {
	mu    sync.Mutex
	spans []span
	phase string // current accounting phase, set by timingStats
	open  time.Time
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, 1<<16), phase: "init"}
}

func (t *tracer) add(k kind, start time.Time, bytes int64) {
	dur := time.Since(start)
	t.mu.Lock()
	t.spans = append(t.spans, span{Kind: k, Phase: t.phase, Start: start.UnixNano(), Dur: int64(dur), Bytes: bytes})
	t.mu.Unlock()
}

// timed starts a leaf span; the returned func ends it. Used with defer
// so wrappers can return the inner call's result directly (a received
// buffer passes through without being named here).
func (t *tracer) timed(k kind, bytes int64) func() {
	start := time.Now()
	return func() { t.add(k, start, bytes) }
}

// setPhase closes the running phase span and opens the next.
func (t *tracer) setPhase(name string) {
	now := time.Now()
	t.mu.Lock()
	if !t.open.IsZero() {
		t.spans = append(t.spans, span{Kind: kindPhase, Phase: t.phase, Start: t.open.UnixNano(), Dur: int64(now.Sub(t.open))})
	}
	t.phase, t.open = name, now
	t.mu.Unlock()
}

// ---------------------------------------------------------------------
// blockio.Store
// ---------------------------------------------------------------------

type timingStore struct {
	inner blockio.Store
	tr    *tracer
}

func (s *timingStore) ReadAt(id blockio.BlockID, dst []byte) error {
	defer s.tr.timed(kindStoreRead, int64(len(dst)))()
	return s.inner.ReadAt(id, dst)
}

func (s *timingStore) WriteAt(id blockio.BlockID, src []byte) error {
	defer s.tr.timed(kindStoreWrite, int64(len(src)))()
	return s.inner.WriteAt(id, src)
}

func (s *timingStore) Close() error { return s.inner.Close() }

// ---------------------------------------------------------------------
// cluster.Machine / Transport / Stats
// ---------------------------------------------------------------------

// timingMachine decorates a backend machine the way cluster/faulty
// does: Run rebuilds each Node around a timing Transport and a timing
// Stats, everything else delegates.
type timingMachine struct {
	cluster.Machine
	tr *tracer
}

func (m *timingMachine) Run(fn func(*cluster.Node) error) error {
	return m.Machine.Run(func(n *cluster.Node) error {
		// The program never calls Stats() on this node (Sort reads the
		// backend's own), so the last phase is closed here.
		defer m.tr.setPhase("done")
		m.tr.setPhase("init")
		tt := &timingTransport{Transport: n.Transport(), tr: m.tr}
		ts := &timingStats{inner: n.NodeStats(), tr: m.tr}
		return fn(cluster.NewNode(tt, ts, n.Vol, n.Mem))
	})
}

// timingStats observes phase switches; accounting stays with the
// backend's Stats.
type timingStats struct {
	inner cluster.Stats // named: the interface's Stats method rules out embedding
	tr    *tracer
}

func (s *timingStats) SetPhase(name string) {
	s.inner.SetPhase(name)
	s.tr.setPhase(name)
}

func (s *timingStats) Phase() string      { return s.inner.Phase() }
func (s *timingStats) AddCPU(sec float64) { s.inner.AddCPU(sec) }
func (s *timingStats) Stats() ([]string, map[string]*vtime.PhaseStats) {
	return s.inner.Stats()
}

type timingTransport struct {
	cluster.Transport
	tr *tracer
}

func vecBytes(v [][]byte) (n int64) {
	for _, b := range v {
		n += int64(len(b))
	}
	return n
}

func (t *timingTransport) Barrier() {
	defer t.tr.timed(kindBarrier, 0)()
	t.Transport.Barrier()
}

func (t *timingTransport) AllToAllv(send [][]byte) [][]byte {
	defer t.tr.timed(kindA2A, vecBytes(send))()
	return t.Transport.AllToAllv(send)
}

func (t *timingTransport) AllGather(data []byte) [][]byte {
	defer t.tr.timed(kindAllGather, int64(len(data)))()
	return t.Transport.AllGather(data)
}

func (t *timingTransport) Bcast(root int, data []byte) []byte {
	defer t.tr.timed(kindBcast, int64(len(data)))()
	return t.Transport.Bcast(root, data)
}

func (t *timingTransport) AllReduceInt64(v int64, op string) int64 {
	defer t.tr.timed(kindAllReduce, 8)()
	return t.Transport.AllReduceInt64(v, op)
}

func (t *timingTransport) ExchangeAny(items []any, nominalBytes int) []any {
	defer t.tr.timed(kindExchangeAny, int64(nominalBytes*len(items)))()
	return t.Transport.ExchangeAny(items, nominalBytes)
}

func (t *timingTransport) Send(dst, tag int, payload []byte) {
	defer t.tr.timed(kindSend, int64(len(payload)))()
	t.Transport.Send(dst, tag, payload)
}

func (t *timingTransport) Recv(src, tag int) []byte {
	defer t.tr.timed(kindRecv, 0)()
	return t.Transport.Recv(src, tag)
}

// MailboxPeakBytes and OpenA2AStream must be forwarded: a wrapper that
// drops them silently moves the exchange onto the synchronous adapter
// and reports an empty mailbox.
func (t *timingTransport) MailboxPeakBytes() int64 {
	if ms, ok := t.Transport.(cluster.MailboxStats); ok {
		return ms.MailboxPeakBytes()
	}
	return 0
}

func (t *timingTransport) OpenA2AStream(window int) cluster.A2AStream {
	if st, ok := t.Transport.(cluster.StreamingTransport); ok {
		return &timingStream{A2AStream: st.OpenA2AStream(window), tr: t.tr}
	}
	return cluster.SyncA2AStream(t)
}

type timingStream struct {
	cluster.A2AStream
	tr *tracer
}

func (s *timingStream) Post(send [][]byte) {
	defer s.tr.timed(kindStreamPost, vecBytes(send))()
	s.A2AStream.Post(send)
}

func (s *timingStream) Collect() [][]byte {
	defer s.tr.timed(kindStreamCollect, 0)()
	return s.A2AStream.Collect()
}

var (
	_ cluster.Machine            = (*timingMachine)(nil)
	_ cluster.MailboxStats       = (*timingTransport)(nil)
	_ cluster.StreamingTransport = (*timingTransport)(nil)
)

// ---------------------------------------------------------------------
// process boundary: Source and Sink
// ---------------------------------------------------------------------

type timingReader struct {
	r  io.Reader
	tr *tracer
}

func (r *timingReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.r.Read(p)
	r.tr.add(kindSourceRead, start, int64(n))
	return n, err
}

func timingSink(tr *tracer, sink func(b []byte) error) func(rank int, b []byte) error {
	return func(_ int, b []byte) error {
		defer tr.timed(kindSinkWrite, int64(len(b)))()
		return sink(b)
	}
}
