package explore

import (
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// This file fans a tree search across workers. The backtrack points of a
// schedule tree are independent work items; the coarsest independent split
// is the root: every enabled first decision (each pending process's first
// grant, plus each first-grant crash when crash branching is on) roots a
// subtree that can be searched by its own strategy instance over its own
// system instance, concurrently with the others.
//
// Soundness of the shard split:
//
//   - Every enabled root decision is some shard's pin, so the union of the
//     shards is the whole tree. A pinned strategy drops race-demanded
//     backtrack additions at its root frame (PinRoot) — those name other
//     root decisions, each owned by another shard.
//
//   - Sleep sets are per shard. Losing cross-shard sleep propagation can
//     only re-explore work another shard also covers — never skip any, so
//     completeness is preserved. No shard cuts a node by a state hash, so
//     the union of complete shards is an exact proof.
//
// Workers above the shard count idle; shards above the worker count queue.

// RootPinner is implemented by tree strategies that can restrict their
// search to the subtree under one root decision (SourceDPOR, Tree).
type RootPinner interface {
	Strategy
	PinRoot(ch Choice)
}

// ParallelSpec describes a sharded tree search.
type ParallelSpec struct {
	// Workers is the number of concurrent searches (>= 1).
	Workers int
	// N is the population size.
	N int
	// MaxCrashes > 0 adds a crash shard per enabled root process.
	MaxCrashes int
	// Probe builds a throwaway Config whose Body is used once to construct a
	// controller and enumerate the enabled root decisions.
	Probe func() Config
	// NewStrategy builds one shard's strategy; it must implement RootPinner.
	NewStrategy func() Strategy
	// Config builds one shard's drive configuration over a fresh system
	// instance. OnResult callbacks run concurrently across shards — callers
	// share state between them only under their own lock.
	Config func(shard int) Config
}

// RootChoices enumerates the enabled decisions at the initial state of the
// system cfg describes: one step choice per initially pending process, plus
// one crash choice per process when crashes branch.
func RootChoices(cfg Config, maxCrashes int) []Choice {
	e := newEngine(&cfg, 0, nil)
	defer e.Abort()
	var roots []Choice
	for pid := e.NextPending(-1); pid >= 0; pid = e.NextPending(pid) {
		roots = append(roots, Choice{Pid: pid})
	}
	if maxCrashes > 0 {
		for pid := e.NextPending(-1); pid >= 0; pid = e.NextPending(pid) {
			roots = append(roots, Choice{Pid: pid, Crash: true})
		}
	}
	return roots
}

// DriveParallel shards the tree at its root and drives each shard with its
// own strategy and system, up to spec.Workers at a time. The returned Stats
// sum the shards; Complete reports that every shard exhausted its subtree —
// together, a complete walk of the whole tree.
func DriveParallel(spec ParallelSpec) Stats {
	workers := spec.Workers
	if workers < 1 {
		workers = 1
	}
	roots := RootChoices(spec.Probe(), spec.MaxCrashes)
	if len(roots) == 0 {
		return Stats{Complete: true}
	}
	if workers > len(roots) {
		workers = len(roots)
	}
	var (
		mu      sync.Mutex
		total   Stats
		next    int
		stopped atomic.Bool // a shard's OnResult said stop: claim no new shards
	)
	total.Complete = true
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				mu.Lock()
				shard := next
				next++
				mu.Unlock()
				if shard >= len(roots) {
					return
				}
				strat := spec.NewStrategy()
				pinner, ok := strat.(RootPinner)
				if !ok {
					panic("explore: DriveParallel strategy does not implement RootPinner")
				}
				pinner.PinRoot(roots[shard])
				cfg := spec.Config(shard)
				// Wrap OnResult so one shard's stop verdict (a found
				// violation) keeps the pool from claiming further shards —
				// only shards already in flight run on.
				if inner := cfg.OnResult; inner != nil {
					cfg.OnResult = func(run int, t sched.Trace, res sched.Result) bool {
						if !inner(run, t, res) {
							stopped.Store(true)
							return false
						}
						return true
					}
				}
				st := Drive(strat, cfg)
				mu.Lock()
				total.Executions += st.Executions
				total.Partial += st.Partial
				total.Explored += st.Explored
				total.Replayed += st.Replayed
				total.Restored += st.Restored
				total.Pruned += st.Pruned
				total.RaceEvents += st.RaceEvents
				total.RaceNs += st.RaceNs
				total.Complete = total.Complete && st.Complete
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if stopped.Load() {
		total.Complete = false // unclaimed shards were never walked
	}
	return total
}
