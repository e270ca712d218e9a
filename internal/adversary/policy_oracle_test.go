package adversary

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// The oracles below are the pid-at-a-time decision procedures the shipped
// policies used before they decided off the engines' pending words: every
// pending-set question is a per-pid probe of the engine. They are kept here,
// not in the library, as the reference TestPolicyWordsMatchOracles holds the
// word-based policies to: the same pick and the same rng state after every
// decision.

// probe answers pending-set questions one pid at a time from the engine's
// per-pid surface, independently of its pending words: at a decision point a
// process that has neither finished nor crashed has a posted intent.
type probe struct{ e sched.Engine }

func (p probe) PendingCount() int { return p.e.PendingCount() }

func (p probe) isPending(pid int) bool { return !p.e.Done(pid) && !p.e.Crashed(pid) }

func (p probe) NextPending(after int) int {
	for pid := max(after+1, 0); pid < p.e.N(); pid++ {
		if p.isPending(pid) {
			return pid
		}
	}
	return -1
}

func (p probe) NextPendingKind(after int, kind shmem.OpKind) int {
	for pid := p.NextPending(after); pid >= 0; pid = p.NextPending(pid) {
		if p.e.Intent(pid).Kind == kind {
			return pid
		}
	}
	return -1
}

func (p probe) NthPending(i int) int {
	pid := p.NextPending(-1)
	for ; i > 0; i-- {
		pid = p.NextPending(pid)
	}
	return pid
}

// nthPendingExcept returns the k-th (0-based, ascending) pending pid that is
// not in skip, an ascending list of pids.
func (p probe) nthPendingExcept(k int, skip []int) int {
	pid := p.NthPending(k)
	for _, v := range skip {
		if v <= pid && p.isPending(v) {
			pid = p.NextPending(pid)
		}
	}
	return pid
}

type oracle interface{ Next(p probe) int }

type oracleRandom struct{ rng *xrand.Rand }

func (r *oracleRandom) Next(p probe) int { return p.NthPending(r.rng.Intn(p.PendingCount())) }

type oracleRoundRobin struct{ next int }

func (rr *oracleRoundRobin) Next(p probe) int {
	pid := p.NextPending(rr.next - 1)
	if pid < 0 {
		pid = p.NextPending(-1)
		if pid < 0 {
			return -1
		}
	}
	rr.next = pid + 1
	return pid
}

type oracleStarver struct {
	victims []int // ascending, distinct
	rng     *xrand.Rand
}

func (s *oracleStarver) Next(p probe) int {
	pending, starved := p.PendingCount(), 0
	for _, v := range s.victims {
		if p.isPending(v) {
			starved++
		}
	}
	if starved == pending {
		return p.NthPending(s.rng.Intn(pending))
	}
	return p.nthPendingExcept(s.rng.Intn(pending-starved), s.victims)
}

type oracleWriteBlocker struct{ rng *xrand.Rand }

func (w *oracleWriteBlocker) Next(p probe) int {
	chosen, seen := -1, 0
	for pid := p.NextPendingKind(-1, shmem.OpRead); pid >= 0; pid = p.NextPendingKind(pid, shmem.OpRead) {
		seen++
		if w.rng.Intn(seen) == 0 {
			chosen = pid
		}
	}
	if chosen >= 0 {
		return chosen
	}
	for pid := p.NextPending(-1); pid >= 0; pid = p.NextPending(pid) {
		seen++
		if w.rng.Intn(seen) == 0 {
			chosen = pid
		}
	}
	return chosen
}

type oracleCollapse struct {
	k      int
	order  []int
	active []int
	next   int
	rng    *xrand.Rand
}

func (cl *oracleCollapse) Next(p probe) int {
	live := cl.active[:0]
	for _, pid := range cl.active {
		if p.isPending(pid) {
			live = append(live, pid)
		}
	}
	cl.active = live
	for len(cl.active) < cl.k && cl.next < len(cl.order) {
		pid := cl.order[cl.next]
		cl.next++
		if p.isPending(pid) {
			cl.active = append(cl.active, pid)
		}
	}
	if len(cl.active) == 0 {
		return p.NthPending(cl.rng.Intn(p.PendingCount()))
	}
	return cl.active[cl.rng.Intn(len(cl.active))]
}

type oracleLockstep struct {
	cohorts [][]int
	ci, mi  int
}

func (l *oracleLockstep) Next(p probe) int {
	for scanned := 0; scanned <= len(l.cohorts); scanned++ {
		cohort := l.cohorts[l.ci]
		for l.mi < len(cohort) {
			pid := cohort[l.mi]
			l.mi++
			if p.isPending(pid) {
				return pid
			}
		}
		l.mi = 0
		l.ci = (l.ci + 1) % len(l.cohorts)
	}
	return p.NextPending(-1)
}

type oracleOpDelayer struct {
	rng    *xrand.Rand
	victim int
	op     int64
	hold   int
}

func (d *oracleOpDelayer) Next(p probe) int {
	pending := p.PendingCount()
	if d.hold > 0 && p.isPending(d.victim) && p.e.Proc(d.victim).Steps() == d.op {
		if pending == 1 {
			return d.victim
		}
		d.hold--
		return p.nthPendingExcept(d.rng.Intn(pending-1), []int{d.victim})
	}
	return p.NthPending(d.rng.Intn(pending))
}

// oraclePair builds, for one seed and population, a shipped policy and its
// oracle with the same parameters.
type oraclePair struct {
	name string
	mk   func(seed uint64, n int) (func() sched.Policy, oracle)
}

var oraclePairs = []oraclePair{
	{"random", func(seed uint64, n int) (func() sched.Policy, oracle) {
		return func() sched.Policy { return sched.NewRandom(seed) }, &oracleRandom{xrand.New(seed)}
	}},
	{"staleread", func(seed uint64, n int) (func() sched.Policy, oracle) {
		return func() sched.Policy { return NewStaleReader(seed) }, &oracleRandom{xrand.New(seed)}
	}},
	{"roundrobin", func(seed uint64, n int) (func() sched.Policy, oracle) {
		return func() sched.Policy { return &sched.RoundRobin{} }, &oracleRoundRobin{}
	}},
	{"starve", func(seed uint64, n int) (func() sched.Policy, oracle) {
		// A seeded victim set of about a quarter of the pids, so the mask
		// spans every word.
		var victims []int
		pick := xrand.New(seed ^ 0x5eed)
		for pid := 0; pid < n; pid++ {
			if pick.Intn(4) == 0 {
				victims = append(victims, pid)
			}
		}
		return func() sched.Policy { return NewStarver(seed, n, victims...) },
			&oracleStarver{victims: victims, rng: xrand.New(seed)}
	}},
	{"writeblock", func(seed uint64, n int) (func() sched.Policy, oracle) {
		return func() sched.Policy { return NewWriteBlocker(seed) }, &oracleWriteBlocker{xrand.New(seed)}
	}},
	{"collapse", func(seed uint64, n int) (func() sched.Policy, oracle) {
		k := max(n/2, 2)
		rng := xrand.New(seed)
		return func() sched.Policy { return NewCollapse(seed, n, k) },
			&oracleCollapse{k: k, order: rng.Perm(n), rng: rng}
	}},
	{"lockstep", func(seed uint64, n int) (func() sched.Policy, oracle) {
		g := (n + 1) / 2
		order := xrand.New(seed).Perm(n)
		o := &oracleLockstep{}
		for start := 0; start < n; start += g {
			o.cohorts = append(o.cohorts, order[start:min(start+g, n)])
		}
		return func() sched.Policy { return NewLockstep(seed, n, g) }, o
	}},
	{"opdelay", func(seed uint64, n int) (func() sched.Policy, oracle) {
		rng := xrand.New(seed)
		o := &oracleOpDelayer{rng: rng, victim: rng.Intn(n)}
		o.op, o.hold = int64(rng.Intn(8)), 1+rng.Intn(6)
		return func() sched.Policy { return NewOpDelayer(seed, n) }, o
	}},
}

// rngState reads a policy's rng state (its rng field, if it has one).
func rngState(p any) (uint64, bool) {
	f := reflect.ValueOf(p).Elem().FieldByName("rng")
	if !f.IsValid() {
		return 0, false
	}
	return f.Elem().Field(0).Uint(), true
}

// opScripts draws each process's register operations: 0 to 7 reads and
// writes, about a third of them writes, so pending and reader sets vary
// from decision to decision and some processes never pend at all.
func opScripts(seed uint64, n int) [][]shmem.OpKind {
	rng := xrand.New(seed)
	scripts := make([][]shmem.OpKind, n)
	for pid := range scripts {
		for k := rng.Intn(8); k > 0; k-- {
			op := shmem.OpRead
			if rng.Intn(3) == 0 {
				op = shmem.OpWrite
			}
			scripts[pid] = append(scripts[pid], op)
		}
	}
	return scripts
}

// scriptFrame is a lane posting its script's operations in order, each one
// performed when the lane is next granted, and finishing after the last.
type scriptFrame struct {
	ops    []shmem.OpKind
	reg    *shmem.Reg
	i      int
	posted bool
}

func (f *scriptFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.posted {
		if f.ops[f.i] == shmem.OpRead {
			p.Read(f.reg)
		} else {
			p.Write(f.reg, int64(p.ID()))
		}
		f.i++
	}
	if f.i == len(f.ops) {
		return vexec.Done
	}
	f.posted = true
	return m.Intend(f.ops[f.i], f.reg)
}

func scriptBody(scripts [][]shmem.OpKind, reg *shmem.Reg) sched.Body {
	return func(p *shmem.Proc) {
		for _, op := range scripts[p.ID()] {
			if op == shmem.OpRead {
				p.Read(reg)
			} else {
				p.Write(reg, int64(p.ID()))
			}
		}
	}
}

// TestPolicyWordsMatchOracles drives every policy off the pending words of a
// goroutine Controller and of a vexec engine kept in the same pending states,
// at populations that cross word boundaries, and requires at every decision
// that both make the oracle's pick and leave the rng where the oracle leaves
// it. Under the race detector it also checks the driver's reads of the
// Controller's words against the bodies that post them.
func TestPolicyWordsMatchOracles(t *testing.T) {
	seeds := uint64(4)
	if testing.Short() {
		seeds = 2
	}
	for _, n := range []int{2, 5, 16, 63, 64, 65, 130} {
		for _, pair := range oraclePairs {
			for s := uint64(0); s < seeds; s++ {
				seed := xrand.Mix(s, uint64(n))
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", pair.name, n, s), func(t *testing.T) {
					checkAgainstOracle(t, pair, n, seed)
				})
			}
		}
	}
}

func checkAgainstOracle(t *testing.T, pair oraclePair, n int, seed uint64) {
	scripts := opScripts(xrand.Mix(seed, 0x0be), n)
	var creg, vreg shmem.Reg
	c := sched.NewController(n, nil, scriptBody(scripts, &creg))
	defer c.Abort()
	x := vexec.New(n, nil, func(p *shmem.Proc) vexec.Frame {
		return &scriptFrame{ops: scripts[p.ID()], reg: &vreg}
	})
	mk, orc := pair.mk(seed, n)
	onC, onX := mk(), mk()
	for d := 0; c.PendingCount() > 0; d++ {
		if !slices.Equal(c.Pending(), x.Pending()) || !slices.Equal(c.PendingReads(), x.PendingReads()) {
			t.Fatalf("decision %d: engines diverged: pending %x/%x, readers %x/%x",
				d, c.Pending(), x.Pending(), c.PendingReads(), x.PendingReads())
		}
		for pid := 0; pid < n; pid++ {
			pending := !c.Done(pid) && !c.Crashed(pid)
			read := pending && c.Intent(pid).Kind == shmem.OpRead
			if sched.HasBit(c.Pending(), pid) != pending || sched.HasBit(c.PendingReads(), pid) != read {
				t.Fatalf("decision %d: pid %d pending=%v read=%v, words say %v/%v", d, pid, pending, read,
					sched.HasBit(c.Pending(), pid), sched.HasBit(c.PendingReads(), pid))
			}
		}
		want := orc.Next(probe{c})
		gotC, gotX := onC.Next(c), onX.Next(x)
		if gotC != want || gotX != want {
			t.Fatalf("decision %d: picked %d on the controller and %d on vexec, oracle %d", d, gotC, gotX, want)
		}
		if ws, ok := rngState(orc); ok {
			sc, _ := rngState(onC)
			sx, _ := rngState(onX)
			if sc != ws || sx != ws {
				t.Fatalf("decision %d: rng state %#x on the controller and %#x on vexec, oracle %#x", d, sc, sx, ws)
			}
		}
		c.Step(want)
		x.Step(want)
	}
	if x.PendingCount() != 0 || c.Fingerprint() != x.Fingerprint() {
		t.Fatalf("runs ended apart: vexec has %d pending, fingerprints %#x/%#x", x.PendingCount(), c.Fingerprint(), x.Fingerprint())
	}
}

// benchEngine is a vexec engine of n lanes, every lane pending on its first
// operation for as long as nothing is granted: a write when pid%3 == 0, a
// read otherwise.
func benchEngine(n int) *vexec.Exec {
	var reg shmem.Reg
	return vexec.New(n, nil, func(p *shmem.Proc) vexec.Frame {
		op := shmem.OpRead
		if p.ID()%3 == 0 {
			op = shmem.OpWrite
		}
		return &scriptFrame{ops: []shmem.OpKind{op}, reg: &reg}
	})
}

// TestPolicyNextAllocatesNothing: every family's decision allocates nothing.
func TestPolicyNextAllocatesNothing(t *testing.T) {
	const n = 16
	e := benchEngine(n)
	for _, fam := range append(All(), FaultFamilies()...) {
		p := fam.NewPolicy(1, n)
		if a := testing.AllocsPerRun(200, func() { p.Next(e) }); a != 0 {
			t.Errorf("%s: Next allocates %.1f times per decision, want 0", fam.Name, a)
		}
	}
}

// BenchmarkPolicyNext times one decision of each family's policy on vexec:
// n=16, every lane pending, a third of them (pids 0, 3, ..., 15) writers.
// The engine is never granted, so the pending set stays put and ns/op is the
// decision alone.
func BenchmarkPolicyNext(b *testing.B) {
	const n = 16
	e := benchEngine(n)
	for _, fam := range append(All(), FaultFamilies()...) {
		b.Run(fam.Name, func(b *testing.B) {
			p := fam.NewPolicy(1, n)
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += p.Next(e)
			}
			if sink < 0 {
				b.Fatal("negative pick")
			}
		})
	}
}
