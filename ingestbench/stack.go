package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"videodrift"
	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/experiments"
	"videodrift/internal/ingest"
	"videodrift/internal/query"
	"videodrift/internal/replica"
	"videodrift/internal/store"
	"videodrift/internal/telemetry"
)

// Settings copied from cmd/driftserve's flag defaults in -ingest-addr
// mode. The pump cadence and the checkpoint-capture handshake below are
// copied from its main as well; once driftserve's server type is split
// out of main, the benchmark should call that instead.
const (
	dsScale      = 0.02
	trainFrames  = 300
	ringSize     = 4096
	maxTenants   = 64
	tenantQueue  = 256
	batchSize    = 1
	idleEvict    = 2 * time.Minute
	stallTimeout = 10 * time.Second
	pumpEvery    = 2 * time.Millisecond
)

func newDataset() *dataset.Dataset { return dataset.BDD(dsScale) }

// stack is the production ingest stack of driftserve -ingest-addr,
// in-process: provisioned models, a dynamic sharded fleet, the router
// and the TCP server, driven by the 2 ms pump loop.
type stack struct {
	env    *experiments.Env
	opts   videodrift.ShardedOptions
	mon    *videodrift.ShardedMonitor
	router *ingest.Router
	srv    *ingest.Server
	base   *telemetry.Tracer
	addr   string

	clk       clock
	captureCh chan captureReq
	stopPump  chan struct{}
	pumpDone  chan struct{}
	serveDone chan error

	// inPump holds the start time of the Pump call in flight (0 between
	// pumps), for the hang watchdog.
	inPump atomic.Int64
	// processed counts frames processed, for the CPU-window sampler.
	processed atomic.Int64
	// pumpErr holds the first Router.Pump error. The router has no fault
	// injected here, so any error ends the run as incorrect.
	pumpErr atomic.Pointer[error]

	// onPump is called on the pump goroutine after each non-empty pump.
	onPump func(p pumpRec, st ingest.Stats)

	// Written by the pump goroutine; read after it stops.
	pumps    []pumpRec
	captures []captureRec
}

type pumpRec struct {
	start, end int64
	frames     int  // frames processed
	queued     int  // frames left queued across tenants afterwards
	trained    bool // the fleet trained a new model during the pump
}

type captureRec struct {
	start, end int64
	parent     int // index of the requesting replica cycle
}

type captureReq struct {
	parent int
	reply  chan *store.Checkpoint
}

// newStack provisions and starts the stack. It returns once the server
// accepts connections.
func newStack(clk clock, sel core.SelectorKind, onPump func(pumpRec, ingest.Stats)) (*stack, error) {
	ds := newDataset()
	cfg := experiments.DefaultConfig()
	cfg.Scale = dsScale
	cfg.TrainFrames = trainFrames
	env := experiments.BuildEnv(ds, cfg, query.Count)

	newTracer := func() *telemetry.Tracer { return telemetry.New(telemetry.Config{RingSize: ringSize}) }
	base := newTracer()
	pcfg := env.PipelineConfig(sel)
	opts := videodrift.ShardedOptions{
		Options: videodrift.Options{
			Provision: pcfg.Provision,
			Pipeline:  pcfg,
			Forensics: videodrift.ForensicsConfig{Enabled: true},
			Tracer:    base,
		},
		StallTimeout: stallTimeout,
	}
	mon := videodrift.NewDynamicSharded(env.Registry.Entries(), env.Labeler(), opts)
	router := ingest.NewRouter(mon, ingest.Config{
		MaxTenants: maxTenants,
		QueueCap:   tenantQueue,
		BatchSize:  batchSize,
		IdleEvict:  idleEvict,
		NewTracer:  func(string) *telemetry.Tracer { return newTracer() },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{
		env: env, opts: opts, mon: mon, router: router, base: base,
		srv:       ingest.NewServer(router, ingest.ServerConfig{}),
		addr:      ln.Addr().String(),
		clk:       clk,
		onPump:    onPump,
		captureCh: make(chan captureReq),
		stopPump:  make(chan struct{}),
		pumpDone:  make(chan struct{}),
		serveDone: make(chan error, 1),
	}
	go func() { s.serveDone <- s.srv.Serve(ln) }()
	go s.pumpLoop()
	return s, nil
}

// pumpLoop is driftserve's ingest pump: Router.Pump every 2 ms, with
// checkpoint captures served between pumps.
func (s *stack) pumpLoop() {
	defer close(s.pumpDone)
	tick := time.NewTicker(pumpEvery)
	defer tick.Stop()
	var trained int
	for {
		select {
		case <-s.stopPump:
			return
		case req := <-s.captureCh:
			start := s.clk.now()
			cp := s.mon.Checkpoint()
			s.captures = append(s.captures, captureRec{start: start, end: s.clk.now(), parent: req.parent})
			req.reply <- cp
		case <-tick.C:
			start := s.clk.now()
			s.inPump.Store(start)
			n, err := s.router.Pump()
			end := s.clk.now()
			s.inPump.Store(0)
			if err != nil {
				// As driftserve does: report it and count what was processed.
				fmt.Fprintln(os.Stderr, "ingestbench: Router.Pump:", err)
				s.pumpErr.CompareAndSwap(nil, &err)
			}
			if n == 0 {
				continue
			}
			s.processed.Add(int64(n))
			st := s.router.Stats()
			p := pumpRec{start: start, end: end, frames: n}
			if t := s.mon.Stats().ModelsTrained; t != trained {
				p.trained, trained = true, t
			}
			for _, t := range st.Tenants {
				p.queued += t.Queued
			}
			s.pumps = append(s.pumps, p)
			s.onPump(p, st)
		}
	}
}

// capture asks the pump loop for a checkpoint between pumps, the
// handshake driftserve's replication Capture callback uses.
func (s *stack) capture(parent int) *store.Checkpoint {
	reply := make(chan *store.Checkpoint, 1)
	select {
	case s.captureCh <- captureReq{parent: parent, reply: reply}:
		return <-reply
	case <-s.pumpDone:
		return nil
	}
}

// close stops the pump loop and the server and waits for both.
func (s *stack) close() error {
	close(s.stopPump)
	<-s.pumpDone
	err := s.srv.Close()
	if serr := <-s.serveDone; !errors.Is(serr, net.ErrClosed) && err == nil {
		err = serr
	}
	return err
}

// replication is a replica.Primary streaming to an in-process
// replica.Standby over loopback, cycled by the harness so each
// Primary.Cycle can be timed.
type replication struct {
	prim    *replica.Primary
	standby *replica.Standby
	ln      net.Listener
	tracer  *telemetry.Tracer
	done    chan error

	// Written by the cycling goroutine.
	cycles []cycleRec
	lagMax int
	kept   []*store.Checkpoint // the latest captures, for the store ladder
}

type cycleRec struct{ start, end int64 }

const keepCaptures = 12

func newReplication(s *stack, tracer *telemetry.Tracer) (*replication, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &replication{
		standby: replica.NewStandby(replica.StandbyConfig{}),
		ln:      ln,
		tracer:  tracer,
		done:    make(chan error, 1),
	}
	go func() { r.done <- r.standby.Serve(ln) }()
	r.prim = replica.NewPrimary(replica.PrimaryConfig{
		Addrs:  []string{ln.Addr().String()},
		Epoch:  1,
		Tracer: tracer,
		Capture: func() *store.Checkpoint {
			cp := s.capture(len(r.cycles)) // the cycle in flight
			if cp != nil {
				r.kept = append(r.kept, cp)
				if len(r.kept) > keepCaptures {
					r.kept = r.kept[1:]
				}
			}
			return cp
		},
	})
	return r, nil
}

// cycle runs and times one Primary.Cycle.
func (r *replication) cycle(clk clock) error {
	start := clk.now()
	err := r.prim.Cycle()
	r.cycles = append(r.cycles, cycleRec{start: start, end: clk.now()})
	if lag := r.prim.Lag(); lag > r.lagMax {
		r.lagMax = lag
	}
	return err
}

// close severs the stream and waits for the standby's listener.
func (r *replication) close() {
	r.prim.Close()
	r.standby.Close()
	r.ln.Close()
	<-r.done
}
