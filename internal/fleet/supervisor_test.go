package fleet

import (
	"context"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

// waitSrv blocks until the replica's published server (nil while none)
// satisfies ok, or ctx ends.
func (r *supReplica) waitSrv(ctx context.Context, ok func(*http.Server) bool) error {
	for {
		r.mu.Lock()
		srv, edge := r.srv, r.edge
		r.mu.Unlock()
		if ok(srv) {
			return nil
		}
		select {
		case <-edge:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// waitServing blocks until the replica's serving state equals serving —
// a server published (its port bound) or none — or ctx ends.
func (r *supReplica) waitServing(ctx context.Context, serving bool) error {
	return r.waitSrv(ctx, func(srv *http.Server) bool { return (srv != nil) == serving })
}

// TestSupervisorLifecycleRace races the lifecycle calls against the
// supervisor's restarts: one replica is killed over and over while the
// other is killed and disabled back to back (the disable lands while
// its supervisor is restarting it), then the fleet shuts down while
// kills are still landing. A disabled replica must refuse connections
// and stay down, and Shutdown must return within its deadline: a
// disable or shutdown falling between a supervisor's check and its
// publish must not leave a server running.
func TestSupervisorLifecycleRace(t *testing.T) {
	tm, chain, _ := fixture(t)
	f, err := StartFleet(tm, chain, FleetConfig{
		Shards: 1, Replicas: 2,
		RestartBase: 100 * time.Microsecond, RestartMax: time.Millisecond,
		Router: RouterConfig{ProbeInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	victim, churn := f.shards[0].reps[0], f.shards[0].reps[1]
	for _, sr := range f.shards[0].reps {
		if err := sr.waitServing(ctx, true); err != nil {
			t.Fatalf("replica %s never served: %v", sr.rep.ID, err)
		}
	}

	// Churn: kill the other replica each time it comes back, until the
	// fleet is down.
	churnCtx, stopChurn := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for churn.waitServing(churnCtx, true) == nil {
			f.KillReplica(churn.rep.ID)
		}
	}()

	f.KillReplica(victim.rep.ID)
	f.DisableReplica(victim.rep.ID)
	if err := victim.waitServing(ctx, false); err != nil {
		t.Fatalf("disabled replica still serving: %v", err)
	}
	if conn, err := net.Dial("tcp", victim.addr); err == nil {
		conn.Close()
		t.Fatal("disabled replica accepted a connection")
	}
	if srv := victim.curSrv(); srv != nil {
		t.Fatal("disabled replica published a server")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		f.Shutdown(sctx)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatal("Shutdown did not return within its deadline")
	}
	stopChurn()
	wg.Wait()
	if conn, err := net.Dial("tcp", churn.addr); err == nil {
		conn.Close()
		t.Fatal("replica still accepting connections after Shutdown")
	}
}
