// Package service is the long-lived renaming layer: acquire a name, hold it,
// release it, reuse it — the ROADMAP's "millions of users" workload over the
// paper's one-shot algorithms. The paper's objects assign each contender a
// name once and never take it back; production renaming is continuous churn.
// This package closes the gap with three mechanisms:
//
//   - Generations with epochs. A shard's name space is served by a sequence
//     of generations, each a fresh (or recycled) instance of an existing
//     one-shot renamer. A session acquires by joining the shard's open
//     generation and running the one-shot algorithm over that generation's
//     private register set; the acquired name is qualified by the
//     generation's epoch — a strictly increasing per-shard counter — so a
//     reused (shard, slot) name is a *different name* from any earlier
//     holder's, and a stale holder can never be confused with the current
//     one (the fencing-token idiom). Within a generation, exclusivity is
//     exactly the one-shot algorithm's proven guarantee.
//
//   - Quiescence-gated recycling. A generation's registers are recycled
//     (reset to Null and returned to a pool) only when every session that
//     ever attached to it has departed — released, failed over to a newer
//     generation, or been reclaimed after a crash. Until then the registers
//     are immutable history: a slow loser's late write lands in its own
//     generation's registers, which no current acquire can observe, so it
//     can never evict a newer holder. This is epoch-based reclamation
//     applied to names instead of memory.
//
//   - Leases. A session that crashes while holding a name never executes
//     its release write (the engines discard a dead process's posted
//     intent). The driver observes the crash and reclaims the lease exactly
//     once: the holder count drops, the generation can quiesce, and the name
//     becomes reusable under a later epoch while the crashed holder's epoch
//     is burned forever.
//
// Sessions are compiled both ways the repository executes algorithms: as a
// goroutine body (sched.Controller, the oracle) and as a frame automaton
// (internal/vexec). The one streaming driver in driver.go runs on either
// engine; on vexec it steps thousands of concurrent sessions on one thread
// with lane recycling and zero steady-state allocations. All service
// bookkeeping mutates only inside a session's granted steps (frame Run
// invocations / body code between gates), which makes an execution's
// bookkeeping a deterministic function of its grant sequence — the property
// the stateless model-checking proofs in internal/model rely on.
package service

import (
	"fmt"
	"sync"

	"repro/internal/shmem"
)

// Name is a fully qualified long-lived name: the local name the one-shot
// algorithm assigned, the shard it lives in, and the epoch of the generation
// that issued it. Two sessions may hold the same (Shard, Local) at different
// times; their Names differ by Epoch.
type Name struct {
	Shard int
	Local int64
	Epoch uint64
}

// Packing layout of Name.Int: epoch in the high bits, then shard, then the
// local name. Local names are bounded by the backend's MaxName (majority's
// expander output space is the largest at ~10^5 for service-sized
// capacities); shards are a deployment knob.
const (
	localBits = 24
	shardBits = 10
	epochBits = 29 // 63 - localBits - shardBits: Int stays positive
)

// Int packs the name into a positive int64 (>= 1 whenever Local >= 1, as
// check.Exclusive requires). It panics if a field overflows its lane —
// overflow would silently alias two distinct names.
func (n Name) Int() int64 {
	if n.Local < 1 || n.Local >= 1<<localBits {
		panic(fmt.Sprintf("service: local name %d outside [1..%d)", n.Local, int64(1)<<localBits))
	}
	if n.Shard < 0 || n.Shard >= 1<<shardBits {
		panic(fmt.Sprintf("service: shard %d outside [0..%d)", n.Shard, 1<<shardBits))
	}
	if n.Epoch >= 1<<epochBits {
		panic(fmt.Sprintf("service: epoch %d overflows %d bits", n.Epoch, epochBits))
	}
	return int64(n.Epoch)<<(localBits+shardBits) | int64(n.Shard)<<localBits | n.Local
}

// Unpack is Int's inverse.
func Unpack(v int64) Name {
	return Name{
		Shard: int(v >> localBits & (1<<shardBits - 1)),
		Local: v & (1<<localBits - 1),
		Epoch: uint64(v) >> (localBits + shardBits),
	}
}

// Config shapes a Service.
type Config struct {
	// Shards is the number of independent name-space shards; sessions on
	// different shards share no registers. Default 1.
	Shards int
	// Cap is the contender capacity of one generation: how many sessions a
	// generation admits before it closes. Default 8.
	Cap int
	// Algo selects the one-shot backend by name (see newBackend): "firstfit"
	// (default) or "majority".
	Algo string
	// Seed parameterizes backends that embed randomized structure (the
	// majority expander); the service itself derives nothing from it.
	Seed uint64
	// MaxAttempts bounds how many generations a session tries before its
	// acquire fails (ok=false). Each failed attempt closes the generation it
	// lost in, so the retry lands on a younger one. Default 4.
	MaxAttempts int
	// FFPairs overrides the firstfit backend's field size (pairs per
	// generation); zero uses the default 2*Cap+2. Proof fixtures shrink it
	// so the model checker's schedule trees stay exhaustible.
	FFPairs int
	// Audit turns on the invariant audit: every issuance, release, reclaim
	// and recycle is logged and cross-checked on the fly, and a violation
	// panics with a description (surfacing through the engines as a process
	// panic, which the model checker reports with the violating schedule).
	// Proof and test mode only: the audit allocates per event.
	Audit bool
}

func (c Config) normalize() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Cap <= 0 {
		c.Cap = 8
	}
	if c.Algo == "" {
		c.Algo = "firstfit"
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	return c
}

// poolGens caps the recycled generations kept per shard; excess quiescent
// generations are dropped to the garbage collector.
const poolGens = 8

// generation is one activation of a one-shot renamer inside a shard. Its
// registers (the backend's field plus the presence row) are private to the
// sessions that join it; they are recycled only at quiescence.
type generation struct {
	epoch   uint64
	backend Backend
	// pres is the presence row: one register per admitted contender. A
	// session's first access announces it (writes a non-Null tag) and its
	// last access departs (writes Null) — the write whose grant is the
	// session's release point, and whose discard at a crash is what leaves a
	// lease to reclaim.
	pres []shmem.Reg
	// joined is how many contenders were admitted (join order is the
	// contender's slot and its original name minus one). open means the
	// generation still admits joiners.
	joined int
	open   bool
	// attached counts sessions between join and depart (holders included);
	// zero attached on a closed generation is quiescence. holders counts
	// sessions currently holding an issued name.
	attached int
	holders  int
}

// Shard is one independent slice of the name space.
type shard struct {
	id    int
	epoch uint64 // last epoch issued; strictly increasing
	cur   *generation
	pool  []*generation
}

// Service is the long-lived renaming service.
type Service struct {
	cfg Config
	// mu guards all bookkeeping. Bookkeeping calls happen inside granted
	// steps, which the engines serialize, so the lock is uncontended by
	// construction. On the vectorized engine they all run on the driving
	// goroutine. On the goroutine engine they run on the session goroutines
	// (one per session, spawned by Relaunch) and on the driver's goroutine
	// between grants; the lock makes that ordering explicit to the race
	// detector.
	mu     sync.Mutex
	shards []*shard

	// Counters (lifetime totals; see Stats).
	issued    int64
	released  int64
	reclaimed int64
	failed    int64
	recycles  int64
	genAllocs int64

	audit *audit
}

// New builds a service.
func New(cfg Config) *Service {
	cfg = cfg.normalize()
	// Probe the backend configuration early: a malformed algo name should
	// fail at construction, not at the first join.
	probe := cfg.newBackend()
	if probe.MaxName() >= 1<<localBits {
		panic(fmt.Sprintf("service: backend %s local name bound %d overflows the %d-bit pack lane", cfg.Algo, probe.MaxName(), localBits))
	}
	s := &Service{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range s.shards {
		s.shards[i] = &shard{id: i}
	}
	if cfg.Audit {
		s.audit = newAudit()
	}
	return s
}

// ShardFor maps a session identity to its shard.
func (s *Service) ShardFor(sid int64) int {
	if s.cfg.Shards == 1 {
		return 0
	}
	// SplitMix-style avalanche; cheap and stationary.
	x := uint64(sid) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return int(x % uint64(s.cfg.Shards))
}

// join admits a session to the shard's open generation, opening a fresh (or
// pooled) one if needed. It returns the generation and the session's
// contender slot. Called from inside a granted step.
func (s *Service) join(shardID int, sid int64) (*generation, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[shardID]
	g := sh.cur
	if g == nil || !g.open {
		g = s.openGeneration(sh)
	}
	slot := g.joined
	g.joined++
	g.attached++
	if g.joined == s.cfg.Cap {
		g.open = false
		if sh.cur == g {
			sh.cur = nil
		}
	}
	if s.audit != nil {
		s.audit.join(shardID, g.epoch, slot, sid)
	}
	return g, slot
}

// openGeneration activates a generation under a fresh epoch, reusing a
// pooled quiescent one when available. Caller holds mu.
func (s *Service) openGeneration(sh *shard) *generation {
	var g *generation
	if n := len(sh.pool); n > 0 {
		g = sh.pool[n-1]
		sh.pool[n-1] = nil
		sh.pool = sh.pool[:n-1]
	} else {
		g = &generation{
			backend: s.cfg.newBackend(),
			pres:    make([]shmem.Reg, s.cfg.Cap),
		}
		s.genAllocs++
	}
	sh.epoch++
	g.epoch = sh.epoch
	g.joined, g.attached, g.holders = 0, 0, 0
	g.open = true
	sh.cur = g
	if s.audit != nil {
		s.audit.open(sh.id, g.epoch)
	}
	return g
}

// won records an issued name. Called from inside the granted step that
// completed the one-shot algorithm. acquireSteps is the session's local step
// count spent on this acquire (announce write included).
func (s *Service) won(g *generation, shardID int, slot int, sid int64, local int64, acquireSteps int64) Name {
	s.mu.Lock()
	defer s.mu.Unlock()
	g.holders++
	s.issued++
	nm := Name{Shard: shardID, Local: local, Epoch: g.epoch}
	if s.audit != nil {
		s.audit.issue(nm, sid, slot, acquireSteps)
	}
	return nm
}

// depart detaches a session from its generation after its presence write
// (release or failure exit) executed. released reports whether the session
// held a name; final distinguishes a terminal failure from a retry that will
// rejoin a younger generation (only terminal failures count in Stats).
// Called from inside a granted step.
func (s *Service) depart(g *generation, shardID int, slot int, sid int64, released, final bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if released {
		g.holders--
		s.released++
	} else if final {
		s.failed++
	}
	if s.audit != nil {
		s.audit.depart(shardID, g.epoch, slot, sid, released)
	}
	s.detachLocked(g, shardID)
}

// closeForRetry closes the generation a session just failed in, so its next
// join lands on a younger one. Called from inside a granted step, before the
// rejoin.
func (s *Service) closeForRetry(g *generation, shardID int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g.open {
		g.open = false
		if s.shards[shardID].cur == g {
			s.shards[shardID].cur = nil
		}
	}
}

// Reclaim releases a crashed session's lease: the driver observed the crash
// and hands back the session's attachment. holding reports whether the
// session held a name at the crash (its release write was discarded). A
// session may be reclaimed at most once; the audit enforces it and the
// driver's lane bookkeeping guarantees it structurally.
func (s *Service) Reclaim(g *generation, shardID int, slot int, sid int64, holding bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if holding {
		g.holders--
	}
	s.reclaimed++
	if s.audit != nil {
		s.audit.reclaim(shardID, g.epoch, slot, sid, holding)
	}
	s.detachLocked(g, shardID)
}

// detachLocked drops one attachment and recycles the generation at
// quiescence. Caller holds mu.
func (s *Service) detachLocked(g *generation, shardID int) {
	g.attached--
	if g.attached == 0 && !g.open {
		// Quiescent: no session can ever touch these registers again, so the
		// harness-level reset is equivalent to a fresh allocation.
		g.backend.Recycle()
		for i := range g.pres {
			g.pres[i].Poke(shmem.Null)
		}
		s.recycles++
		sh := s.shards[shardID]
		if s.audit != nil {
			s.audit.recycle(shardID, g.epoch)
		}
		if len(sh.pool) < poolGens {
			sh.pool = append(sh.pool, g)
		}
	}
}

// Stats is a snapshot of the service's lifetime counters.
type Stats struct {
	Issued    int64 // names issued (successful acquires)
	Released  int64 // names released by their holder
	Reclaimed int64 // leases reclaimed after a crash
	Failed    int64 // sessions whose acquire failed after MaxAttempts
	Recycles  int64 // generations recycled at quiescence
	GenAllocs int64 // generations (or backends) freshly allocated
}

// Stats returns a snapshot of the lifetime counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Issued:    s.issued,
		Released:  s.released,
		Reclaimed: s.reclaimed,
		Failed:    s.failed,
		Recycles:  s.recycles,
		GenAllocs: s.genAllocs,
	}
}

// presTag is the non-Null value a session writes to announce its presence:
// the slot index offset into positive space. The value itself is
// informational (the audit and tests read it); correctness rides on the
// write's grant timing, not its payload.
func presTag(slot int) int64 { return int64(slot) + 1 }
