package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// Start runs the router's maintenance loop: every ProbeInterval it
// probes replica health, exchanges liveness with peer routers, and
// repairs model placement (re-pushing catalog models to the replicas
// that should now own them). Stop halts the loop.
func (rt *Router) Start() {
	rt.done.Add(1)
	go func() {
		defer rt.done.Done()
		ticker := time.NewTicker(rt.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-ticker.C:
				rt.tick()
			}
		}
	}()
}

// Stop halts the maintenance loop. Safe to call more than once.
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.done.Wait()
}

// tick is one maintenance round. Exposed to tests (same package) so
// probe/gossip/repair can be driven deterministically without waiting
// on the ticker.
func (rt *Router) tick() {
	rt.probeAll()
	rt.gossipAll()
	rt.repair()
	rt.Probes.Inc()
}

// probeAll probes every replica's /healthz concurrently. A reachable
// replica is marked alive immediately (one good probe revives a dead
// one); FailAfter consecutive failures mark it dead.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, addr := range rt.cfg.Replicas {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			resp, err := rt.cfg.Client.Get(addr + "/healthz")
			if err != nil {
				rt.noteFailure(addr)
				return
			}
			// Read the body out so the transport keeps the connection:
			// closed unread, it is discarded, and every probe dials anew.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				rt.noteFailure(addr)
				return
			}
			rt.noteSuccess(addr)
		}(addr)
	}
	wg.Wait()
}

// gossipAll exchanges replica liveness with every peer router: POST
// our state, merge theirs from the response. Unreachable peers are
// skipped — gossip is best-effort by design.
func (rt *Router) gossipAll() {
	if len(rt.cfg.Peers) == 0 {
		return
	}
	mine := rt.statesCopy()
	body, _ := json.Marshal(mine)
	for _, peer := range rt.cfg.Peers {
		resp, err := rt.cfg.Client.Post(peer+"/cluster/gossip", "application/json", bytes.NewReader(body))
		if err != nil {
			continue
		}
		var theirs map[string]ReplicaState
		err = json.NewDecoder(resp.Body).Decode(&theirs)
		resp.Body.Close()
		if err == nil {
			rt.mergeStates(theirs)
		}
	}
}

// handleGossip is the receiving half of the exchange: merge the
// caller's view, answer with ours (post-merge), so one round trip
// syncs both directions.
func (rt *Router) handleGossip(w http.ResponseWriter, r *http.Request) {
	var theirs map[string]ReplicaState
	if err := json.NewDecoder(r.Body).Decode(&theirs); err != nil {
		writeError(w, http.StatusBadRequest, "invalid gossip body: %v", err)
		return
	}
	rt.mergeStates(theirs)
	writeJSON(w, http.StatusOK, rt.statesCopy())
}

func (rt *Router) statesCopy() map[string]ReplicaState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[string]ReplicaState, len(rt.state))
	for addr, st := range rt.state {
		out[addr] = *st
	}
	return out
}

// mergeStates folds a peer's view into ours, newest observation wins:
// for each replica both routers track, the state with the larger AsOf
// timestamp is kept. Replicas we don't front are ignored — gossip
// shares observations, it does not grow the replica set.
func (rt *Router) mergeStates(theirs map[string]ReplicaState) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for addr, peer := range theirs {
		ours, ok := rt.state[addr]
		if !ok {
			continue
		}
		if peer.AsOf > ours.AsOf {
			*ours = peer
		}
	}
}

// repair re-converges model placement after membership changed: for
// every catalog model, any alive owner that has not been pushed the
// model yet receives it now. When a replica dies, its models' desired
// owner sets shift to ring successors; repair is what actually ships
// the weights there. When it revives, repair is a no-op for it (the
// push ledger remembers it already holds its models).
func (rt *Router) repair() {
	rt.mu.RLock()
	todo := make(map[string]string, len(rt.catalog))
	for name, path := range rt.catalog {
		todo[name] = path
	}
	rt.mu.RUnlock()
	for name, path := range todo {
		for _, addr := range rt.owners(name) {
			rt.mu.RLock()
			pushed := rt.have[addr][name]
			rt.mu.RUnlock()
			if pushed {
				continue
			}
			if res := rt.pushModel(addr, name, path); res.Error == "" {
				rt.Repairs.Inc()
			}
		}
	}
}
