package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/transport"
)

// The traced run records one span per call at every public boundary a
// call crosses, from the benchmark's own wrappers:
//
//	frontend  frontend.Client method
//	pipe      transport.Conn handed to frontend.Connect
//	head      transport.ServerConn handed to the head's HandleConn: Recv
//	          returning a call to the matching Reply
//	tcp       transport.Conn returned by core.Config.PeerDial
//	peer      transport.ServerConn from the peer listener's Accept
//
// A call's spans share the client's ID space and chain by parent ID.
// The pipe wrapper sends each call wrapped in api.WithSpan, the wire
// form the runtime already unwraps, so the server-side wrappers learn
// their parent, and the offload proxy carries it on to the peer.

type layer uint8

const (
	layerClient layer = iota
	layerPipe
	layerHead
	layerTCP
	layerPeer
)

var layerNames = [...]string{"frontend", "pipe", "head", "tcp", "peer"}

type callKind uint8

const (
	kRegister callKind = iota
	kTenant
	kMalloc
	kMemcpyHD
	kMemcpyDH
	kLaunch
	kFree
	kExit
	kOther
	nKinds
)

var kindNames = [nKinds]string{"register", "tenant", "malloc", "memcpy_hd", "memcpy_dh", "launch", "free", "exit", "other"}

func kindOf(call api.Call) callKind {
	switch call.(type) {
	case api.RegisterFatBinaryCall:
		return kRegister
	case api.SetTenantCall:
		return kTenant
	case api.MallocCall:
		return kMalloc
	case api.MemcpyHDCall:
		return kMemcpyHD
	case api.MemcpyDHCall:
		return kMemcpyDH
	case api.LaunchCall:
		return kLaunch
	case api.FreeCall:
		return kFree
	case api.ExitCall:
		return kExit
	}
	return kOther
}

type span struct {
	id, parent uint64
	start, end int64 // ns since the tracer's epoch
	layer      layer
	kind       callKind
}

// Span IDs carry the client index in their low byte, so a wrapper on
// any goroutine or node records into the right client's buffer.
func clientOf(id uint64) int { return int(id & 0xff) }

// spanBuf holds the spans of one client's in-flight session.
type spanBuf struct {
	seq   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// Per-layer sample series of a traced run, one set per client.
const (
	lFrontendSelf = iota // frontend method minus its Conn.Call
	lPipeRTT             // pipe Conn.Call minus the head's handling
	lTCPRTT              // peer Conn.Call minus the peer's handling
	lHandle              // handling on the node that served the call
	lProxySelf           // the head's handling minus its peer call
	nLayerSeries
)

// layerStats are one client's per-layer figures, folded from its
// sessions' spans.
type layerStats struct {
	series                          [nLayerSeries]*series
	handleKindNS, handleKindN       [nKinds]int64
	calls, rootNS, broken           int64
	frontendNS, transportNS, coreNS int64
}

// tracer collects spans in memory. Each session's spans are folded
// into per-layer figures when the session ends; the first keepSpans of
// them are also kept to be written out when the run ends.
type tracer struct {
	epoch time.Time
	bufs  [clients]spanBuf
	stats [clients]layerStats

	mu    sync.Mutex
	dials *series
	kept  []span
}

// keepSpans bounds the spans a traced run keeps for its trace file.
const keepSpans = 50000

func newTracer() (*tracer, error) {
	t := &tracer{epoch: time.Now()}
	var err error
	if t.dials, err = newSeries(); err != nil {
		return nil, err
	}
	for c := range t.stats {
		for i := range t.stats[c].series {
			if t.stats[c].series[i], err = newSeries(); err != nil {
				t.release()
				return nil, err
			}
		}
	}
	return t, nil
}

func (t *tracer) release() {
	t.dials.release()
	for c := range t.stats {
		for _, s := range t.stats[c].series {
			if s != nil {
				s.release()
			}
		}
	}
}

func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

func (t *tracer) newID(client int) uint64 {
	return t.bufs[client].seq.Add(1)<<8 | uint64(client)
}

func (t *tracer) record(s span) {
	b := &t.bufs[clientOf(s.id)]
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// sessionTrace is the client-side view of one traced session.
type sessionTrace struct {
	t      *tracer
	client int
	cur    uint64 // the open frontend span, parent of the pipe call
}

func (t *tracer) session(client int) *sessionTrace {
	return &sessionTrace{t: t, client: client}
}

func (st *sessionTrace) begin() uint64 {
	st.cur = st.t.newID(st.client)
	return st.cur
}

func (st *sessionTrace) end(id uint64, kind callKind, start, end time.Time) {
	st.t.record(span{id: id, start: st.t.at(start), end: st.t.at(end), layer: layerClient, kind: kind})
}

// pipeConn wraps the connection a frontend.Client calls through.
type pipeConn struct {
	inner transport.Conn
	st    *sessionTrace
}

func (st *sessionTrace) pipeConn(c transport.Conn) transport.Conn {
	return &pipeConn{inner: c, st: st}
}

func (c *pipeConn) Call(call api.Call) (api.Reply, error) {
	t := c.st.t
	id := t.newID(c.st.client)
	start := time.Now()
	r, err := c.inner.Call(api.WithSpan{Parent: id, Call: call})
	t.record(span{id: id, parent: c.st.cur, start: t.at(start), end: t.at(time.Now()), layer: layerPipe, kind: kindOf(call)})
	return r, err
}

func (c *pipeConn) Close() error { return c.inner.Close() }

// peerConn wraps the connection the head's offload proxy forwards
// calls over.
type peerConn struct {
	inner transport.Conn
	t     *tracer
}

func (t *tracer) dial(addr string) (transport.Conn, error) {
	start := time.Now()
	c, err := transport.Dial(addr)
	d := time.Since(start)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.dials.add(d)
	t.mu.Unlock()
	return &peerConn{inner: c, t: t}, nil
}

func (c *peerConn) Call(call api.Call) (api.Reply, error) {
	w, ok := call.(api.WithSpan)
	if !ok {
		return c.inner.Call(call)
	}
	id := c.t.newID(clientOf(w.Parent))
	start := time.Now()
	r, err := c.inner.Call(api.WithSpan{Parent: id, Call: w.Call})
	c.t.record(span{id: id, parent: w.Parent, start: c.t.at(start), end: c.t.at(time.Now()), layer: layerTCP, kind: kindOf(w.Call)})
	return r, err
}

func (c *peerConn) Close() error { return c.inner.Close() }

// serverConn wraps a runtime's side of a connection. The span runs
// from Recv handing a call to the runtime until the runtime replies.
type serverConn struct {
	inner transport.ServerConn
	t     *tracer
	layer layer
	open  span
	has   bool
}

func (t *tracer) serverConn(sc transport.ServerConn, l layer) transport.ServerConn {
	return &serverConn{inner: sc, t: t, layer: l}
}

func (s *serverConn) Recv() (api.Call, error) {
	call, err := s.inner.Recv()
	if err != nil {
		return call, err
	}
	w, ok := call.(api.WithSpan)
	if !ok {
		s.has = false
		return call, nil
	}
	id := s.t.newID(clientOf(w.Parent))
	s.open = span{id: id, parent: w.Parent, start: s.t.at(time.Now()), layer: s.layer, kind: kindOf(w.Call)}
	s.has = true
	// The head forwards the span ID in case it proxies the call on.
	return api.WithSpan{Parent: id, Call: w.Call}, nil
}

func (s *serverConn) Reply(r api.Reply) error {
	if s.has {
		s.open.end = s.t.at(time.Now())
		s.t.record(s.open)
		s.has = false
	}
	return s.inner.Reply(r)
}

func (s *serverConn) Close() error { return s.inner.Close() }

// fold moves the finished session's spans out of the client's buffer
// and adds them to the client's per-layer figures. Each frontend span
// must head one complete chain — frontend, pipe, head, and for a
// proxied call tcp and peer — or it counts as broken. Self time is a
// span's duration minus the part of it its child covers, so the self
// times of a chain add up to the frontend span exactly when every
// child lies inside its parent.
func (st *sessionTrace) fold() {
	t := st.t
	b := &t.bufs[st.client]
	b.mu.Lock()
	spans := b.spans
	b.spans = nil
	b.mu.Unlock()

	ls := &t.stats[st.client]
	index := make(map[uint64]int, len(spans))
	for i, s := range spans {
		index[s.id] = i
	}
	child := make([]int, len(spans))
	for i := range child {
		child[i] = -1
	}
	for i, s := range spans {
		if s.layer == layerClient {
			continue
		}
		p, ok := index[s.parent]
		if !ok || child[p] >= 0 {
			ls.broken++
			continue
		}
		child[p] = i
	}
	for i, s := range spans {
		if s.layer != layerClient {
			continue
		}
		ls.calls++
		ls.rootNS += s.end - s.start
		var chain [5]int
		n := 0
		for c := i; c >= 0 && n < len(chain); c = child[c] {
			chain[n] = c
			n++
		}
		if !wellFormed(spans, chain[:n]) {
			ls.broken++
			continue
		}
		proxied := n == 5
		for j, c := range chain[:n] {
			sp := spans[c]
			self := sp.end - sp.start
			if j+1 < n {
				self -= overlap(sp, spans[chain[j+1]])
			}
			d := time.Duration(self)
			switch {
			case sp.layer == layerClient:
				ls.series[lFrontendSelf].add(d)
				ls.frontendNS += self
			case sp.layer == layerPipe:
				ls.series[lPipeRTT].add(d)
				ls.transportNS += self
			case sp.layer == layerTCP:
				ls.series[lTCPRTT].add(d)
				ls.transportNS += self
			case sp.layer == layerHead && proxied:
				ls.series[lProxySelf].add(d)
				ls.coreNS += self
			default: // the node that served the call
				ls.series[lHandle].add(d)
				ls.handleKindNS[sp.kind] += self
				ls.handleKindN[sp.kind]++
				ls.coreNS += self
			}
		}
	}

	t.mu.Lock()
	if room := keepSpans - len(t.kept); room > 0 {
		t.kept = append(t.kept, spans[:min(room, len(spans))]...)
	}
	t.mu.Unlock()
}

var wantChains = [][]layer{
	{layerClient, layerPipe, layerHead},
	{layerClient, layerPipe, layerHead, layerTCP, layerPeer},
}

func wellFormed(spans []span, chain []int) bool {
	for _, want := range wantChains {
		if len(want) != len(chain) {
			continue
		}
		for j, c := range chain {
			if spans[c].layer != want[j] {
				return false
			}
		}
		return true
	}
	return false
}

// overlap is the length of the intersection of two spans.
func overlap(a, b span) int64 {
	lo, hi := max(a.start, b.start), min(a.end, b.end)
	if hi < lo {
		return 0
	}
	return hi - lo
}

// merged sums the clients' scalar figures.
func (t *tracer) merged() layerStats {
	var m layerStats
	for i := range t.stats {
		s := &t.stats[i]
		for k := range m.handleKindNS {
			m.handleKindNS[k] += s.handleKindNS[k]
			m.handleKindN[k] += s.handleKindN[k]
		}
		m.calls += s.calls
		m.rootNS += s.rootNS
		m.broken += s.broken
		m.frontendNS += s.frontendNS
		m.transportNS += s.transportNS
		m.coreNS += s.coreNS
	}
	return m
}

// pooled merges one per-layer series over the clients.
func (t *tracer) pooled(i int) []int32 {
	var parts [][]int32
	for c := range t.stats {
		s := t.stats[c].series[i]
		parts = append(parts, s.buf[:s.n])
	}
	return sorted(parts...)
}

// reconcile checks that the layers' self times add up to the time the
// client observed, with every call's chain intact.
func (t *tracer) reconcile() error {
	m := t.merged()
	if m.calls == 0 {
		return fmt.Errorf("trace: no calls traced")
	}
	if m.broken > 0 {
		return fmt.Errorf("trace: %d of %d calls have a broken span chain", m.broken, m.calls)
	}
	if sum := m.frontendNS + m.transportNS + m.coreNS; sum != m.rootNS {
		return fmt.Errorf("trace: layer self times add up to %d ns, client observed %d ns", sum, m.rootNS)
	}
	return nil
}

// write stores the kept spans as JSON lines, after one line that
// stamps the host.
func (t *tracer) write(path string, h host) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": h}); err != nil {
		f.Close()
		return err
	}
	type line struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent,omitempty"`
		Layer  string `json:"layer"`
		Call   string `json:"call"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for _, s := range t.kept {
		l := line{ID: s.id, Parent: s.parent, Layer: layerNames[s.layer], Call: kindNames[s.kind], Start: s.start, End: s.end}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
