package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/core"
	"gvrt/internal/cudart"
	"gvrt/internal/frontend"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
	"gvrt/internal/transport"
)

// scale makes modeled GPU time vanish against wall time, so what a run
// measures is the runtime's own cost: dispatch, binding, the memory
// manager and the transport. It is not 1e-9: the model clock counts
// int64 nanoseconds, which at 1e-9 overflow 9.2 wall seconds after a
// node starts; at 1e-8 they last 92 s, longer than any run.
const scale = 1e-8

// clients is the closed-loop client count of every workload. It is
// fixed, not derived from the host, so results from different hosts
// describe the same load.
const clients = 2

// binaryID names the fat binary every session registers. Its "xor"
// kernel has a host implementation, so probes carry real bytes through
// the runtime and back.
const binaryID = "perfbench"

var benchBinary = api.FatBinary{
	ID: binaryID,
	Kernels: []api.KernelMeta{
		{Name: "spin", BaseTime: 50 * time.Microsecond},
		{Name: "xor", BaseTime: 5 * time.Microsecond},
	},
}

func init() {
	api.RegisterKernelImpl(binaryID, "xor", func(mem api.KernelMemory, scalars []uint64) error {
		b, err := mem.Arg(0)
		if err != nil {
			return err
		}
		key := byte(scalars[0])
		for i := range b {
			b[i] ^= key
		}
		return nil
	})
}

var tenants = [2]string{"tenant-a", "tenant-b"}

// errProbe marks a session whose real-data probe read back wrong bytes.
var errProbe = errors.New("probe read back different bytes")

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// warmup is the number of sessions each client runs during set-up.
	warmup int
	build  func() (*rig, error)
	draw   func(r *rand.Rand) shape
	// attributed workloads join every session to a tenant; offloads
	// ones forward every session to a peer node.
	attributed, offloads bool
}

var workloads = []workload{
	{name: "dispatch", warmup: 300, build: buildDispatch, draw: drawDispatch, attributed: true},
	{name: "swap", warmup: 40, build: buildSwap, draw: drawSwap},
	{name: "offload", warmup: 60, build: buildOffload, draw: drawDispatch, attributed: true, offloads: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want dispatch, swap or offload)", name)
}

// shape is one session's generated schedule.
type shape interface {
	// run issues the session's calls, up to but not including exit.
	run(k *caller) error
	// launches is the number of kernel launches the session issues.
	launches() int64
	// swapOps is the number of page-table entries the memory manager
	// must swap out for the session, in closed form.
	swapOps() int64
}

// dispatchShape is a short session on an uncontended node: every call
// is per-call framework work and nothing has to swap.
type dispatchShape struct {
	tenant int
	buf    uint64
	rounds int
	key    byte
	probe  []byte
}

func drawDispatch(r *rand.Rand) shape {
	s := &dispatchShape{
		tenant: r.Intn(len(tenants)),
		buf:    uint64(16+r.Intn(241)) << 12, // 64 KiB .. 1 MiB
		rounds: 10 + r.Intn(21),              // mean 20
		key:    byte(1 + r.Intn(255)),
		probe:  make([]byte, 256),
	}
	r.Read(s.probe)
	return s
}

func (s *dispatchShape) launches() int64 { return int64(s.rounds) + 1 }
func (s *dispatchShape) swapOps() int64  { return 0 }

func (s *dispatchShape) run(k *caller) error {
	c := k.c
	if err := k.do(kRegister, func() error { return c.RegisterFatBinary(benchBinary) }); err != nil {
		return err
	}
	if err := k.do(kTenant, func() error { return c.SetTenant(tenants[s.tenant]) }); err != nil {
		return err
	}
	var bufs [3]api.DevPtr
	sizes := [3]uint64{s.buf, s.buf, uint64(len(s.probe))}
	for i := range bufs {
		if err := k.do(kMalloc, func() (err error) { bufs[i], err = c.Malloc(sizes[i]); return err }); err != nil {
			return err
		}
	}
	spin := api.LaunchCall{Kernel: "spin", Grid: api.Dim3{X: 32}, Block: api.Dim3{X: 128}, PtrArgs: bufs[:2]}
	for i := 0; i < s.rounds; i++ {
		if err := k.do(kMemcpyHD, func() error { return c.MemcpyHDSynthetic(bufs[0], s.buf) }); err != nil {
			return err
		}
		if err := k.do(kLaunch, func() error { return c.Launch(spin) }); err != nil {
			return err
		}
	}
	p := bufs[2]
	if err := k.do(kMemcpyHD, func() error { return c.MemcpyHD(p, s.probe) }); err != nil {
		return err
	}
	xor := api.LaunchCall{Kernel: "xor", Grid: api.Dim3{X: 1}, Block: api.Dim3{X: 256},
		PtrArgs: []api.DevPtr{p}, Scalars: []uint64{uint64(s.key)}}
	if err := k.do(kLaunch, func() error { return c.Launch(xor) }); err != nil {
		return err
	}
	var got []byte
	if err := k.do(kMemcpyDH, func() (err error) { got, err = c.MemcpyDH(p, uint64(len(s.probe))); return err }); err != nil {
		return err
	}
	for _, ptr := range bufs {
		if err := k.do(kFree, func() error { return c.Free(ptr) }); err != nil {
			return err
		}
	}
	want := make([]byte, len(s.probe))
	for i, b := range s.probe {
		want[i] = b ^ s.key
	}
	if !bytes.Equal(got, want) {
		return errProbe
	}
	return nil
}

// Swap working sets: 23 x 128 MiB = 2944 MiB per set. One set fits a
// C2050's 3 GiB next to the context reservation and two do not, so
// each launch of one set evicts the whole other set.
const (
	swapSetBufs  = 23
	swapBufBytes = 128 << 20
	swapProbeLen = 256
)

// swapShape holds two working sets that each nearly fill the device
// and launches them alternately, so the memory manager swaps a whole
// set on every launch.
type swapShape struct {
	rounds int
	probes [2][]byte
}

func drawSwap(r *rand.Rand) shape {
	s := &swapShape{rounds: 3 + r.Intn(7)} // mean 6
	for i := range s.probes {
		s.probes[i] = make([]byte, swapProbeLen)
		r.Read(s.probes[i])
	}
	return s
}

func (s *swapShape) launches() int64 { return 2 * int64(s.rounds) }

// swapOps: the first launch fits on the device and evicts nothing;
// every later launch evicts the other set's swapSetBufs large buffers.
// The other set's probe stays: evicting the large buffers already
// frees room enough.
func (s *swapShape) swapOps() int64 { return (2*int64(s.rounds) - 1) * swapSetBufs }

func (s *swapShape) run(k *caller) error {
	c := k.c
	if err := k.do(kRegister, func() error { return c.RegisterFatBinary(benchBinary) }); err != nil {
		return err
	}
	var sets [2][]api.DevPtr
	for i := range sets {
		for j := 0; j <= swapSetBufs; j++ {
			size := uint64(swapBufBytes)
			if j == swapSetBufs {
				size = swapProbeLen
			}
			var p api.DevPtr
			if err := k.do(kMalloc, func() (err error) { p, err = c.Malloc(size); return err }); err != nil {
				return err
			}
			sets[i] = append(sets[i], p)
		}
		probe := sets[i][swapSetBufs]
		if err := k.do(kMemcpyHD, func() error { return c.MemcpyHD(probe, s.probes[i]) }); err != nil {
			return err
		}
	}
	var launch [2]api.LaunchCall
	for i := range launch {
		launch[i] = api.LaunchCall{Kernel: "spin", Grid: api.Dim3{X: 32}, Block: api.Dim3{X: 128}, PtrArgs: sets[i]}
	}
	for r := 0; r < s.rounds; r++ {
		for i := range launch {
			if err := k.do(kLaunch, func() error { return c.Launch(launch[i]) }); err != nil {
				return err
			}
		}
	}
	probeOK := true
	for i := range sets {
		var got []byte
		if err := k.do(kMemcpyDH, func() (err error) { got, err = c.MemcpyDH(sets[i][swapSetBufs], swapProbeLen); return err }); err != nil {
			return err
		}
		probeOK = probeOK && bytes.Equal(got, s.probes[i])
	}
	if !probeOK {
		return errProbe
	}
	return nil
}

// node is one simulated GPU node.
type node struct {
	crt *cudart.Runtime
	rt  *core.Runtime
}

func newNode(cfg core.Config, specs ...gpu.Spec) (*node, error) {
	clock := sim.NewClock(scale)
	devs := make([]*gpu.Device, len(specs))
	for i, s := range specs {
		devs[i] = gpu.NewDevice(i, s, clock)
	}
	crt := cudart.New(clock, devs...)
	rt, err := core.New(crt, cfg)
	if err != nil {
		return nil, err
	}
	return &node{crt: crt, rt: rt}, nil
}

// rig is one built set-up: the nodes a workload runs on and the
// goroutines serving them.
type rig struct {
	head *node                  // the node clients connect to
	all  []*node                // every node, head first
	tr   atomic.Pointer[tracer] // set while a traced phase runs
	// resident is the session that holds the head's only vGPU in the
	// offload workload, nil elsewhere.
	resident *frontend.Client
	listener *transport.Listener
	// wg tracks the rig's long-lived goroutines, live the server
	// goroutines of measured and warm-up sessions.
	wg, live sync.WaitGroup
}

// connect opens one session's connection to the head node. When the
// rig is traced, both ends of the pipe are wrapped.
func (g *rig) connect(client int) (*frontend.Client, *sessionTrace) {
	c, s := transport.Pipe()
	var st *sessionTrace
	if t := g.tr.Load(); t != nil {
		st = t.session(client)
		c = st.pipeConn(c)
		s = t.serverConn(s, layerHead)
	}
	g.live.Add(1)
	go func() {
		defer g.live.Done()
		g.head.rt.HandleConn(s)
	}()
	return frontend.Connect(c), st
}

// close stops every node and waits for every goroutine the rig
// started.
func (g *rig) close() {
	if g.resident != nil {
		_ = g.resident.Close()
	}
	if g.listener != nil {
		_ = g.listener.Close()
	}
	for _, n := range g.all {
		n.rt.Close()
	}
	g.wg.Wait()
}

// buildDispatch: the paper's node (2x Tesla C2050 + C1060) with the
// default vGPU count, so two clients never queue for a vGPU.
func buildDispatch() (*rig, error) {
	n, err := newNode(core.Config{}, gpu.TeslaC2050, gpu.TeslaC2050, gpu.TeslaC1060)
	if err != nil {
		return nil, err
	}
	return &rig{head: n, all: []*node{n}}, nil
}

// buildSwap: one C2050 with a single vGPU, so the two clients queue
// for it and every session swaps against the device's capacity.
func buildSwap() (*rig, error) {
	n, err := newNode(core.Config{VGPUsPerDevice: 1}, gpu.TeslaC2050)
	if err != nil {
		return nil, err
	}
	return &rig{head: n, all: []*node{n}}, nil
}

// buildOffload: a head node whose only vGPU is held by a resident
// session, so every measured session is forwarded over TCP to a peer
// node. The peer's accept loop is the benchmark's own, so a traced
// run can wrap each accepted connection.
func buildOffload() (*rig, error) {
	peer, err := newNode(core.Config{}, gpu.TeslaC2050)
	if err != nil {
		return nil, err
	}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		peer.rt.Close()
		return nil, err
	}
	g := &rig{listener: l}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			if t := g.tr.Load(); t != nil {
				sc = t.serverConn(sc, layerPeer)
			}
			g.live.Add(1)
			go func() {
				defer g.live.Done()
				peer.rt.HandleConn(sc)
			}()
		}
	}()
	addr := l.Addr()
	head, err := newNode(core.Config{
		VGPUsPerDevice:   1,
		OffloadThreshold: 1,
		PeerDial: func() (transport.Conn, error) {
			if t := g.tr.Load(); t != nil {
				return t.dial(addr)
			}
			return transport.Dial(addr)
		},
	}, gpu.TeslaC2050)
	if err != nil {
		_ = l.Close()
		peer.rt.Close()
		g.wg.Wait()
		return nil, err
	}
	g.head, g.all = head, []*node{head, peer}
	if err := g.holdHead(); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// holdHead opens the resident session and binds it to the head's only
// vGPU with one launch.
func (g *rig) holdHead() error {
	cc, sc := transport.Pipe()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.head.rt.HandleConn(sc)
	}()
	c := frontend.Connect(cc)
	g.resident = c
	if err := c.RegisterFatBinary(benchBinary); err != nil {
		return fmt.Errorf("resident session: %w", err)
	}
	p, err := c.Malloc(1 << 16)
	if err != nil {
		return fmt.Errorf("resident session: %w", err)
	}
	spin := api.LaunchCall{Kernel: "spin", Grid: api.Dim3{X: 1}, Block: api.Dim3{X: 32}, PtrArgs: []api.DevPtr{p}}
	if err := c.Launch(spin); err != nil {
		return fmt.Errorf("resident session: %w", err)
	}
	return nil
}

// residentLaunches is the number of launches holdHead issues.
func (g *rig) residentLaunches() int64 {
	if g.resident != nil {
		return 1
	}
	return 0
}
