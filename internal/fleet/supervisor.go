package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"lumos5g"
	"lumos5g/internal/core"
	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
	"lumos5g/internal/ingest"
	"lumos5g/internal/mapserver"
	"lumos5g/internal/par"
)

// The supervisor runs a whole fleet locally: per-shard slices of the
// throughput map behind replicated mapserver instances on loopback TCP,
// each replica supervised by a restart-with-backoff loop, fronted by a
// Router. This is both the lumosfleet binary's engine and the harness
// the chaos tests beat on — a killed replica here dies the way a killed
// process does (its connections reset mid-flight), and comes back on
// the same port the topology advertises.

// PartitionMap slices tm into per-shard maps, keyed by shard ID, giving
// each cell to its owner under topo.Owner — the rule the router routes
// by, so a query always lands on the shard holding its cell. Every
// shard gets a map (possibly empty: it still serves map-mean answers
// for misrouted or failed-over queries).
func PartitionMap(tm *lumos5g.ThroughputMap, topo *Topology) map[string]*lumos5g.ThroughputMap {
	parts := make(map[string]*lumos5g.ThroughputMap, len(topo.Shards))
	for _, sh := range topo.Shards {
		parts[sh.ID] = &lumos5g.ThroughputMap{
			Cells:      map[geo.GridKey]*core.MapCell{},
			MinSamples: tm.MinSamples,
		}
	}
	for key, cell := range tm.Cells {
		owner := topo.Owner(engine.Key{Col: int32(key.Col), Row: int32(key.Row)})
		parts[owner.ID].Cells[key] = cell
	}
	return parts
}

// FleetConfig sizes and tunes a locally-supervised fleet.
type FleetConfig struct {
	Shards   int    // partitions (default 3)
	Replicas int    // replicas per shard (default 2)
	Host     string // bind host (default 127.0.0.1)

	// ServerOpts apply to every replica's mapserver.
	ServerOpts []mapserver.Option
	// Router tunes the fronting router.
	Router RouterConfig

	// RestartBase/RestartMax bound the jittered exponential backoff
	// between replica restarts (defaults 50ms / 2s).
	RestartBase time.Duration
	RestartMax  time.Duration
	// Seed seeds the restart jitter (0 = fixed default).
	Seed uint64

	// Ingest, when non-nil, attaches a streaming-ingest pipeline and
	// refit loop to every replica: the router forwards POST /ingest to
	// the shard owning each sample's cell, so each replica refits on
	// the slice of the map it actually serves. Any ArtifactPath is
	// suffixed with the replica ID so replicas never clobber each
	// other's candidate files.
	Ingest *ingest.Config
}

func (c *FleetConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Host == "" {
		c.Host = "127.0.0.1"
	}
	if c.RestartBase <= 0 {
		c.RestartBase = 50 * time.Millisecond
	}
	if c.RestartMax <= 0 {
		c.RestartMax = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 0x5106
	}
}

// Fleet is a running, locally-supervised serving fleet.
type Fleet struct {
	cfg    FleetConfig
	router *Router

	shards []*supShard
	jit    *jitter // restart jitter, shared by every supervisor

	// ingStops joins every replica's refit loop on Shutdown.
	ingStops []func()

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

type supShard struct {
	shard *Shard
	reps  []*supReplica
}

// supReplica supervises one replica process-alike: an http.Server over
// a real TCP listener, restarted with jittered capped backoff when it
// dies, always on the same pinned port the topology advertises.
//
// mu makes the supervisor's check-and-publish one critical section
// against the lifecycle calls: the supervisor binds and publishes a
// server only while holding mu and only if the replica is neither
// disabled nor shutting down, and DisableReplica, DrainShard and
// Shutdown flip that state and read the published server under the same
// lock. So no lifecycle call can land between the check and the publish
// and find no server to close while one is about to serve.
type supReplica struct {
	rep  *Replica
	ms   *mapserver.Server
	addr string // pinned after the first bind

	mu       sync.Mutex
	disabled bool         // terminal: the supervisor exits once it sees it
	srv      *http.Server // published server; nil while not serving
	// edge is closed and replaced on every change of srv, so waiters
	// block on the event instead of polling.
	edge chan struct{}
}

// signal wakes everyone waiting on the current edge. Callers hold mu.
func (r *supReplica) signal() {
	close(r.edge)
	r.edge = make(chan struct{})
}

func (r *supReplica) curSrv() *http.Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.srv
}

// disable marks the replica disabled and returns the server it was
// serving, if any, in one critical section: once it returns, the
// supervisor publishes nothing new.
func (r *supReplica) disable() *http.Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.disabled = true
	return r.srv
}

// StartFleet partitions tm across cfg.Shards shards, starts
// cfg.Replicas supervised replicas per shard (every replica of a shard
// serves that shard's map slice through the shared chain), and fronts
// them with a Router. Call Shutdown to stop everything.
func StartFleet(tm *lumos5g.ThroughputMap, chain *lumos5g.FallbackChain, cfg FleetConfig) (*Fleet, error) {
	cfg.fill()
	topo := &Topology{}
	for i := 0; i < cfg.Shards; i++ {
		topo.Shards = append(topo.Shards, &Shard{ID: fmt.Sprintf("s%d", i)})
	}
	parts := PartitionMap(tm, topo)

	ctx, cancel := context.WithCancel(context.Background())
	f := &Fleet{cfg: cfg, ctx: ctx, cancel: cancel, jit: newJitter(cfg.Seed)}
	for _, sh := range topo.Shards {
		id := sh.ID
		// Registered before its first replica starts, so a failure below
		// closes every server already serving.
		ss := &supShard{shard: sh}
		f.shards = append(f.shards, ss)
		for j := 0; j < cfg.Replicas; j++ {
			ms, err := mapserver.NewWithChain(parts[id], chain, cfg.ServerOpts...)
			if err != nil {
				cancel()
				f.closeAll()
				return nil, fmt.Errorf("fleet: shard %s replica %d: %w", id, j, err)
			}
			ln, err := net.Listen("tcp", cfg.Host+":0")
			if err != nil {
				cancel()
				f.closeAll()
				return nil, fmt.Errorf("fleet: bind replica %s/%d: %w", id, j, err)
			}
			rep := &Replica{
				ID:  fmt.Sprintf("%sr%d", id, j),
				URL: "http://" + ln.Addr().String(),
			}
			if cfg.Ingest != nil {
				icfg := *cfg.Ingest
				if icfg.Refit.ArtifactPath != "" {
					icfg.Refit.ArtifactPath += "." + rep.ID
				}
				ii := ingest.New(ms.Metrics(), icfg)
				ms.AttachIngestor(ii)
				f.ingStops = append(f.ingStops, ii.Start(ms, nil))
			}
			sr := &supReplica{
				rep:  rep,
				ms:   ms,
				addr: ln.Addr().String(),
				edge: make(chan struct{}),
			}
			sh.Replicas = append(sh.Replicas, rep)
			ss.reps = append(ss.reps, sr)
			f.wg.Add(1)
			go f.supervise(sr, ln)
		}
	}
	f.router = NewRouter(topo, cfg.Router)
	return f, nil
}

// supervise is one replica's lifecycle loop: serve until the server
// dies, then restart on the pinned port behind jittered capped backoff.
// A replica that served for a while restarts fast (the backoff resets);
// one that is crash-looping backs off to RestartMax. Disabling is
// terminal: the loop returns, and the deferred close frees the port.
func (f *Fleet) supervise(r *supReplica, ln net.Listener) {
	defer f.wg.Done()
	defer func() {
		if ln != nil {
			_ = ln.Close()
		}
	}()
	bo := newBackoff(f.jit, f.cfg.RestartBase, f.cfg.RestartMax)
	for {
		r.mu.Lock()
		if f.ctx.Err() != nil || r.disabled {
			r.mu.Unlock()
			return
		}
		if ln == nil {
			var err error
			ln, err = net.Listen("tcp", r.addr)
			if err != nil {
				r.mu.Unlock()
				// The pinned port is briefly unavailable (a dying server's
				// listener not fully gone): back off and retry.
				if !bo.wait(f.ctx) {
					return
				}
				continue
			}
		}
		srv := &http.Server{Handler: r.ms}
		r.srv = srv
		r.signal()
		r.mu.Unlock()

		started := time.Now()
		// Serve closes ln when it returns, including when a lifecycle
		// call closed srv before Serve started.
		_ = srv.Serve(ln) // blocks until Close/Shutdown or a fatal error
		ln = nil
		r.mu.Lock()
		r.srv = nil
		r.signal()
		r.mu.Unlock()
		if f.ctx.Err() != nil {
			return
		}
		if time.Since(started) > time.Second {
			bo.reset() // it ran healthily; this is not a crash loop
		}
		if !bo.wait(f.ctx) {
			return
		}
	}
}

// Router returns the fleet's front door (an http.Handler).
func (f *Fleet) Router() *Router { return f.router }

// Topology returns the router's current membership view.
func (f *Fleet) Topology() *Topology { return f.router.Topology() }

func (f *Fleet) findReplica(replicaID string) *supReplica {
	for _, ss := range f.shards {
		for _, sr := range ss.reps {
			if sr.rep.ID == replicaID {
				return sr
			}
		}
	}
	return nil
}

// KillReplica hard-kills one replica the way `kill -9` kills a
// process: its listener and every in-flight connection close
// immediately. The supervisor restarts it with backoff on the same
// port. Reports whether the replica exists.
func (f *Fleet) KillReplica(replicaID string) bool {
	sr := f.findReplica(replicaID)
	if sr == nil {
		return false
	}
	if srv := sr.curSrv(); srv != nil {
		_ = srv.Close()
	}
	return true
}

// DisableReplica kills one replica and keeps it down for good (no
// restarts). This is the chaos tests' "stays dead" switch.
func (f *Fleet) DisableReplica(replicaID string) bool {
	sr := f.findReplica(replicaID)
	if sr == nil {
		return false
	}
	if srv := sr.disable(); srv != nil {
		_ = srv.Close()
	}
	return true
}

// DrainShard removes one shard gracefully: it stops receiving new
// routing decisions immediately, the topology swap makes the remaining
// shards own its key range, and only then do its replicas shut down
// gracefully (in-flight requests finish). Queries for its cells keep
// answering throughout — degraded once the map slice is gone, but never
// 5xx. Reports whether the shard existed.
func (f *Fleet) DrainShard(ctx context.Context, shardID string) bool {
	old := f.router.Topology()
	sh := old.ShardByID(shardID)
	if sh == nil {
		return false
	}
	sh.SetDraining(true)
	next := &Topology{}
	for _, s := range old.Shards {
		if s.ID != shardID {
			next.Shards = append(next.Shards, s)
		}
	}
	f.router.SetTopology(next)
	// A connection the router dialed but never sent a request on is
	// StateNew to its replica, and Shutdown waits 5 s before treating it
	// as idle; release them now that no new request routes here.
	f.router.client.CloseIdleConnections()
	var srvs []*http.Server
	for _, ss := range f.shards {
		if ss.shard.ID != shardID {
			continue
		}
		for _, sr := range ss.reps {
			if srv := sr.disable(); srv != nil {
				srvs = append(srvs, srv)
			}
		}
	}
	par.Do(len(srvs), len(srvs), func(i int) { _ = srvs[i].Shutdown(ctx) })
	return true
}

// Shutdown drains the fleet: the router closes first (prober stopped,
// idle connections released, so no replica waits on them), then every
// replica shuts down gracefully within ctx's budget, then the
// supervisor loops are joined. Safe to call once.
func (f *Fleet) Shutdown(ctx context.Context) {
	f.router.Close()
	for _, stop := range f.ingStops {
		stop()
	}
	f.ingStops = nil
	// Cancel before reading the servers: a supervisor checks the context
	// under the same lock it publishes under, so every server is either
	// read below or never published.
	f.cancel()
	var srvs []*http.Server
	for _, ss := range f.shards {
		for _, sr := range ss.reps {
			if srv := sr.curSrv(); srv != nil {
				srvs = append(srvs, srv)
			}
		}
	}
	par.Do(len(srvs), len(srvs), func(i int) { _ = srvs[i].Shutdown(ctx) })
	f.wg.Wait()
}

// closeAll tears down whatever a failed StartFleet had already built.
func (f *Fleet) closeAll() {
	for _, stop := range f.ingStops {
		stop()
	}
	f.ingStops = nil
	for _, ss := range f.shards {
		for _, sr := range ss.reps {
			if srv := sr.curSrv(); srv != nil {
				_ = srv.Close()
			}
		}
	}
	f.wg.Wait()
}
