package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// This file checks every compiled classify × merge kernel against a
// row-at-a-time reference: per row, per class, accept → KeyOf → GroupOf
// → route[g] → bucket. The kernels may block, fuse and fold however
// they like; what a tick stages — entries, runs, copies, wire overhead,
// samples — has to be what the reference says.

// kernelShape is one plan shape and the kernels it must compile to.
// core marks the shapes core.New can produce: it attaches a sampler
// exactly when it sets Shared, so shared-without-sampler exists only in
// bare-engine tests and the engine_step ledger rows.
type kernelShape struct {
	name     string
	groups   int
	slots    int // partitions; above 64 a row's slot mask takes two words
	classes  int
	reject   rejectMode
	shared   bool
	exact    bool
	micro    bool
	sampled  bool
	core     bool
	classify classifyKernel
	merge    mergeKernel
}

// rejectMode picks which classes reject rows: none, one filtering and
// one drawing sel < 1, or every class (filters and draws alternating).
type rejectMode uint8

const (
	rejectNone rejectMode = iota
	rejectSome
	rejectAll
)

var kernelShapes = []kernelShape{
	{"nonshared/pow2/2", 32, 6, 2, rejectNone, false, false, false, false, true, classifyFused, mergeNone},
	{"nonshared/pow2/5/reject", 32, 6, 5, rejectSome, false, false, false, false, true, classifyFused, mergeNone},
	{"nonshared/24/5/reject", 24, 6, 5, rejectSome, false, false, false, false, true, classifyGeneric, mergeNone},
	{"shared/pow2/1/bare", 32, 6, 1, rejectNone, true, false, false, false, false, classifyFused, mergeNone},
	{"shared/pow2/2/bare", 32, 6, 2, rejectNone, true, false, false, false, false, classifyFused, mergePair},
	{"shared/pow2/5/reject/bare", 32, 6, 5, rejectSome, true, false, false, false, false, classifyFused, mergeFolded},
	{"shared/pow2/1", 32, 6, 1, rejectNone, true, false, false, true, true, classifyGeneric, mergeNone},
	{"shared/pow2/2", 32, 6, 2, rejectNone, true, false, false, true, true, classifyGeneric, mergePair},
	{"shared/24/2/reject", 24, 6, 2, rejectSome, true, false, false, true, true, classifyGeneric, mergeFolded},
	{"shared/24/5/reject", 24, 6, 5, rejectSome, true, false, false, true, true, classifyGeneric, mergeFolded},
	{"shared/24/5/rejectall", 24, 6, 5, rejectAll, true, false, false, true, true, classifyGeneric, mergeFolded},
	{"shared/pow2/2/rejectall/bare", 32, 6, 2, rejectAll, true, false, false, false, false, classifyFused, mergeFolded},
	{"shared/pow2/5/wide/bare", 128, 70, 5, rejectNone, true, false, false, false, false, classifyFused, mergeFolded},
	{"shared/130/5/wide", 130, 70, 5, rejectNone, true, false, false, true, true, classifyGeneric, mergeFolded},
	{"shared/130/5/rejectall/wide", 130, 70, 5, rejectAll, true, false, false, true, true, classifyGeneric, mergeFolded},
	{"shared/exact/pow2/2", 32, 6, 2, rejectNone, true, true, false, true, true, classifyRowShared, mergeRowLanes},
	{"shared/exact/24/5/reject", 24, 6, 5, rejectSome, true, true, false, true, true, classifyRowShared, mergeRowLanes},
	{"shared/micro/pow2/2", 32, 6, 2, rejectNone, true, false, true, true, true, classifyRowShared, mergeRowLanes},
	{"nonshared/exact/pow2/2", 32, 6, 2, rejectNone, false, true, false, false, true, classifyRowScatter, mergeNone},
	{"nonshared/exact/24/5/reject", 24, 6, 5, rejectSome, false, true, false, false, true, classifyRowScatter, mergeNone},
	{"nonshared/micro/pow2/5/reject", 32, 6, 5, rejectSome, false, false, true, false, true, classifyRowScatter, mergeNone},
}

// kernelKeys are the route classes of the test stream, in class order;
// the first has two member queries so copies serve more than one.
var kernelKeys = []KeySpec{{0}, {1}, {2}, {0, 1}, {0, 1, 2}}

const kernelSampleEvery = 3

// recSource fills blocks from a seeded RNG and keeps the rows, stamped
// as the router stamped them, for the reference to replay.
type recSource struct {
	rng  *rand.Rand
	rows []Tuple
}

func (s *recSource) NextBlock(b *TupleBlock, from, to int) {
	for r := from; r < to; r++ {
		t := Tuple{TS: b.TS[r]}
		for c := 0; c < 3; c++ {
			t.Cols[c] = int64(s.rng.Intn(40))
			b.Col[c][r] = t.Cols[c]
		}
		s.rows = append(s.rows, t)
	}
}

func kernelEngine(t *testing.T, sh kernelShape, batch int) (*Engine, *recSource) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes, cfg.NumPartitions, cfg.NumGroups, cfg.SourceTasks = 2, sh.slots, sh.groups, 1
	cfg.Shared, cfg.ExactWindows, cfg.BatchSize = sh.shared, sh.exact, batch
	if sh.micro {
		cfg.Profile = Profile{Name: "micro", MicroBatch: true, BatchInterval: vtime.Second}
	}
	src := &recSource{rng: rand.New(rand.NewSource(int64(batch)))}
	streams := []StreamDef{{Name: "s", NumCols: 3, BytesPerTuple: 100,
		NewSource: func(int) Source { return src }}}
	var qs []QuerySpec
	for ci, key := range kernelKeys[:sh.classes] {
		in := Input{Stream: 0, Key: key}
		switch {
		case sh.reject == rejectNone:
		case ci == 1:
			in.Filter, in.FilterID = func(t *Tuple) bool { return t.Cols[2]%3 != 0 }, 1
		case ci == 2:
			in.Selectivity = 0.6
		case sh.reject != rejectAll:
		case ci%2 == 1:
			in.Filter, in.FilterID = func(t *Tuple) bool { return t.Cols[0]%4 != 1 }, 2
		default:
			in.Selectivity = 0.5 + 0.1*float64(ci)
		}
		members := 1
		if ci == 0 {
			members = 2
		}
		for m := 0; m < members; m++ {
			qs = append(qs, QuerySpec{ID: fmt.Sprintf("q%d-%d", ci, m), Kind: OpAggregate,
				Inputs: []Input{in}, Window: WindowSpec{Range: vtime.Second, Slide: vtime.Second}})
		}
	}
	e, err := New(cfg, streams, qs)
	if err != nil {
		t.Fatal(err)
	}
	// Rotate each class's assignment so one key group lands on
	// different slots in different classes.
	for _, q := range e.queries {
		rot := len(q.spec.Inputs[0].Key)*2 + q.spec.Inputs[0].Key[0]
		for g := 0; g < cfg.NumGroups; g++ {
			p := (int(q.assign.Partition(keyspace.GroupID(g))) + rot) % cfg.NumPartitions
			q.assign.Set(keyspace.GroupID(g), keyspace.PartitionID(p))
		}
	}
	if err := e.rebuildPlans(); err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 1537) // 153.7 rows a tick: ragged last block, carry
	return e, src
}

// refBucket is what one dense route key must hold after a tick.
type refBucket struct {
	slot, class, n, extraQ int
	lastRow                int
	runs                   map[[2]int]*runCell // folded: (class, group)
	rows                   []Tuple             // row lanes
	bits                   []uint64
	groups                 []keyspace.GroupID
}

type refSample struct {
	ts      vtime.Time
	classes []int
	groups  []keyspace.GroupID
}

// referenceRoute is the row-at-a-time router.
func referenceRoute(e *Engine, plan *streamPlan, rows []Tuple, rng *rand.Rand, gate *sampleGate) (map[int]*refBucket, []refSample) {
	out := map[int]*refBucket{}
	var samples []refSample
	for i := range rows {
		t := &rows[i]
		vec := refSample{ts: t.TS}
		for ci, rc := range plan.classes {
			if rc.filter != nil && !rc.filter(t) || rc.filter == nil && rc.sel < 1 && rng.Float64() >= rc.sel {
				continue
			}
			g := e.space.GroupOf(rc.key.KeyOf(t))
			p, cls := int(rc.route[g]), -1
			bk := p
			if !plan.shared {
				bk, cls = ci*plan.slots+p, ci
			}
			b := out[bk]
			if b == nil {
				b = &refBucket{slot: p, class: cls, lastRow: -1, runs: map[[2]int]*runCell{}}
				out[bk] = b
			}
			if b.lastRow != i { // first class to send this row here: a physical copy
				b.lastRow = i
				b.n++
				b.extraQ--
				b.rows, b.bits = append(b.rows, *t), append(b.bits, 0)
			}
			b.extraQ += len(rc.members)
			b.bits[len(b.bits)-1] |= 1 << uint(ci)
			b.groups = append(b.groups, g)
			if b.runs[[2]int{ci, int(g)}] == nil {
				b.runs[[2]int{ci, int(g)}] = &runCell{}
			}
			c := b.runs[[2]int{ci, int(g)}]
			c.k, c.si, c.si2 = c.k+1, c.si+int64(i), c.si2+int64(i)*int64(i)
			vec.classes, vec.groups = append(vec.classes, ci), append(vec.groups, g)
		}
		if gate.next() && len(vec.classes) > 0 {
			samples = append(samples, vec)
		}
	}
	return out, samples
}

// routeOneTick drives one router task through one tick the way step
// does, without the slot phase, and returns what it staged.
func routeOneTick(e *Engine, rt *routerTask) []pendingSend {
	dt := e.cfg.Tick
	e.clock = e.clock.Add(dt)
	e.cluster.BeginTick(dt)
	e.net.BeginTick(dt)
	nr := e.nodes[rt.node]
	nr.provEg = 0
	clear(nr.provIn)
	rt.routeTick(e, nr, dt)
	return append(append([]pendingSend(nil), rt.pending...), rt.held...)
}

// settleTick ships or drops what the tick staged and empties the slot
// queues, so the next tick starts from a steady state.
func settleTick(e *Engine, rt *routerTask) {
	rt.commitPending(e)
	for _, ps := range rt.held {
		e.nodes[rt.node].recycle(ps.en)
	}
	rt.held, rt.heldBytes = rt.held[:0], 0
	rt.deliverSamples(e)
	drainForBench(e)
}

// checkTick compares one tick's staged sends and samples with the
// reference, and the scratch with the clean state bind promises.
func checkTick(t *testing.T, e *Engine, rt *routerTask, sends []pendingSend, rows []Tuple, rng *rand.Rand, gate sampleGate) {
	t.Helper()
	plan := e.plans[0]
	if rt.bound != plan {
		t.Fatalf("task is bound to a stale plan")
	}
	begin, step := e.clock.Add(-e.cfg.Tick), vtime.Duration(int64(e.cfg.Tick)/int64(len(rows)))
	for i := range rows {
		if want := begin.Add(vtime.Duration(i) * step); rows[i].TS != want {
			t.Fatalf("row %d stamped %v, want %v", i, rows[i].TS, want)
		}
	}
	want, wantSamples := referenceRoute(e, plan, rows, rng, &gate)
	if rt.gate != gate {
		t.Fatalf("sample gate left at %+v, reference %+v", rt.gate, gate)
	}
	keys := make([]int, 0, len(want))
	for bk := range want {
		keys = append(keys, bk)
	}
	sort.Ints(keys)
	if len(sends) != len(keys) {
		t.Fatalf("staged %d entries, reference fills %d buckets", len(sends), len(keys))
	}
	w := e.cfg.TupleWeight
	for i, bk := range keys {
		b, ps, en := want[bk], sends[i], sends[i].en
		id := fmt.Sprintf("bucket %d", bk)
		if en.slot != b.slot || en.plan != plan || en.tsBegin != begin || en.tsStep != step {
			t.Fatalf("%s: header slot=%d begin=%v step=%v", id, en.slot, en.tsBegin, en.tsStep)
		}
		copies, bytesPer := 1.0, 100*w
		if plan.shared {
			if b.extraQ > 0 {
				bytesPer += float64(b.extraQ) * e.cfg.Cost.SharedOverheadBytes * w / float64(b.n)
			}
		} else {
			if en.class != plan.classes[b.class] {
				t.Fatalf("%s: wrong class", id)
			}
			copies = float64(len(en.class.members))
			bytesPer, b.extraQ = 100*w*copies, 0
		}
		if en.n != b.n || en.extraQ != b.extraQ || ps.copies != copies || ps.bytesPer != bytesPer {
			t.Fatalf("%s: n=%d extraQ=%d copies=%v bytesPer=%v, want %d %d %v %v",
				id, en.n, en.extraQ, ps.copies, ps.bytesPer, b.n, b.extraQ, copies, bytesPer)
		}
		if !plan.rowLanes {
			var runs []classRun
			for cg, c := range b.runs {
				runs = append(runs, classRun{class: int32(cg[0]), group: keyspace.GroupID(cg[1]), k: c.k, si: c.si, si2: c.si2})
			}
			sort.Slice(runs, func(i, j int) bool {
				return runs[i].class < runs[j].class || runs[i].class == runs[j].class && runs[i].group < runs[j].group
			})
			if !reflect.DeepEqual(en.runs, runs) || len(en.blk.TS) != 0 || len(en.groups) != 0 {
				t.Fatalf("%s: runs %v, want %v", id, en.runs, runs)
			}
			continue
		}
		if len(en.runs) != 0 || !reflect.DeepEqual(en.groups, b.groups) {
			t.Fatalf("%s: groups %v, want %v", id, en.groups, b.groups)
		}
		if plan.shared && !reflect.DeepEqual(en.classBits, b.bits) {
			t.Fatalf("%s: class bits %v, want %v", id, en.classBits, b.bits)
		}
		for r, row := range b.rows {
			if en.blk.TS[r] != row.TS {
				t.Fatalf("%s: row %d TS %v, want %v", id, r, en.blk.TS[r], row.TS)
			}
			for c := 0; c < MaxCols; c++ {
				if c >= plan.laneCols && len(en.blk.Col[c]) != 0 {
					t.Fatalf("%s: lane %d carried without exact windows", id, c)
				}
				if c < plan.laneCols && en.blk.Col[c][r] != row.Cols[c] {
					t.Fatalf("%s: row %d col %d = %d, want %d", id, r, c, en.blk.Col[c][r], row.Cols[c])
				}
			}
		}
	}

	off := 0
	if len(rt.sampLen) != len(wantSamples) {
		t.Fatalf("staged %d samples, want %d", len(rt.sampLen), len(wantSamples))
	}
	for i, s := range wantSamples {
		ns := rt.sampLen[i]
		if rt.sampTS[i] != s.ts || !reflect.DeepEqual(rt.sampClass[off:off+ns], s.classes) || !reflect.DeepEqual(rt.sampGroup[off:off+ns], s.groups) {
			t.Fatalf("sample %d: %v %v at %v, want %v %v at %v", i,
				rt.sampClass[off:off+ns], rt.sampGroup[off:off+ns], rt.sampTS[i], s.classes, s.groups, s.ts)
		}
		off += ns
	}

	for _, b := range rt.buckets {
		if b != nil {
			t.Fatal("bucket left open after the tick")
		}
	}
	if !allZero(rt.runAcc) || !allZero(rt.slotN) || !allZero(rt.slotXQ) || !allZero(rt.maskScr) || !allZero(rt.accCnt) {
		t.Fatal("tick left dirty scratch behind")
	}
}

func allZero[T comparable](s []T) bool {
	var zero T
	for _, v := range s {
		if v != zero {
			return false
		}
	}
	return true
}

func shapeNamed(t *testing.T, name string) kernelShape {
	t.Helper()
	for _, sh := range kernelShapes {
		if sh.name == name {
			return sh
		}
	}
	t.Fatalf("no kernel shape %q", name)
	return kernelShape{}
}

// tickAndCheck runs one tick of task 0 against the reference and
// returns the highest slot it staged an entry for.
func tickAndCheck(t *testing.T, e *Engine, src *recSource, seed int64) (top int) {
	t.Helper()
	rt := e.tasks[0]
	src.rows = src.rows[:0]
	rt.rng = rand.New(rand.NewSource(seed))
	gate := rt.gate
	sends := routeOneTick(e, rt)
	if len(src.rows) == 0 {
		t.Fatal("tick routed no rows")
	}
	checkTick(t, e, rt, sends, src.rows, rand.New(rand.NewSource(seed)), gate)
	for _, ps := range sends {
		top = max(top, ps.en.slot)
	}
	settleTick(e, rt)
	return top
}

func TestKernelsMatchRowAtATimeReference(t *testing.T) {
	var sawClassify [numClassifyKernels]bool
	var sawMerge [numMergeKernels]bool
	for _, sh := range kernelShapes {
		if sh.core != (sh.shared == sh.sampled) {
			t.Fatalf("%s: core.New attaches a sampler exactly when it shares", sh.name)
		}
		for _, batch := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/batch%d", sh.name, batch), func(t *testing.T) {
				e, src := kernelEngine(t, sh, batch)
				if sh.sampled {
					e.SetSampler(samplerFunc(func(SampleVec) {}), kernelSampleEvery)
				}
				plan := e.plans[0]
				if len(plan.classes) != sh.classes || plan.classify != sh.classify || plan.merge != sh.merge {
					t.Fatalf("compiled %d classes to kernels %d/%d, want %d classes, %d/%d",
						len(plan.classes), plan.classify, plan.merge, sh.classes, sh.classify, sh.merge)
				}
				sawClassify[plan.classify], sawMerge[plan.merge] = true, true
				top := 0
				for tick := int64(0); tick < 3; tick++ {
					top = max(top, tickAndCheck(t, e, src, 100+tick))
				}
				if plan.maskWords > 1 && top < 64 {
					t.Fatalf("no row reached the slot mask's second word (top slot %d)", top)
				}
			})
		}
	}
	for k, saw := range sawClassify {
		if !saw {
			t.Errorf("no shape compiles to classify kernel %d", k)
		}
	}
	for k, saw := range sawMerge {
		if !saw {
			t.Errorf("no shape compiles to merge kernel %d", k)
		}
	}
}

// TestSampleStrideMatchesGate holds the stride a plan with no
// acceptance lane samples by to the per-row gate: at spacings below,
// across and above a block and a whole tick (153–154 rows), at every
// batch size, the sampled rows and the gate phase carried into the
// next block and tick are the ones next picks row by row.
func TestSampleStrideMatchesGate(t *testing.T) {
	for _, name := range []string{"shared/pow2/1", "shared/pow2/2", "shared/exact/pow2/2"} {
		for _, every := range []int{1, 2, 5, 64, 200} {
			for _, batch := range []int{1, 7, 64} {
				t.Run(fmt.Sprintf("%s/every%d/batch%d", name, every, batch), func(t *testing.T) {
					e, src := kernelEngine(t, shapeNamed(t, name), batch)
					e.SetSampler(samplerFunc(func(SampleVec) {}), every)
					if p := e.plans[0]; !p.sampling || p.checkAcc {
						t.Fatalf("plan sampling=%v checkAcc=%v, want a sampled all-accepting plan", p.sampling, p.checkAcc)
					}
					for tick := int64(0); tick < 4; tick++ {
						tickAndCheck(t, e, src, 100+tick)
					}
				})
			}
		}
	}
	// The stride against the gate directly, from every phase.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		every := rng.Intn(12) - 1
		g := sampleGate{every: every}
		if every > 0 {
			g.n = rng.Intn(every)
		}
		ref, n0, m := g, g.n, rng.Intn(40)
		var want []int32
		for r := 0; r < m; r++ {
			if ref.next() {
				want = append(want, int32(r))
			}
		}
		got := g.take(nil, m)
		if !reflect.DeepEqual(got, want) || g != ref {
			t.Fatalf("every %d from %d over %d rows: take %v leaving %+v, next %v leaving %+v",
				every, n0, m, got, g, want, ref)
		}
	}
}

// TestRecompileRebindsScratch covers the two plan inputs that are not
// assignments or queries: attaching a sampler after New switches the
// folded kernel, and a node joining mid-run widens the non-shared
// bucket space. Both must swap the plan and rebind the task.
func TestRecompileRebindsScratch(t *testing.T) {
	t.Run("SetSampler", func(t *testing.T) {
		e, src := kernelEngine(t, shapeNamed(t, "shared/pow2/2/bare"), 7)
		tickAndCheck(t, e, src, 1)
		old, delivered := e.plans[0], 0
		e.SetSampler(samplerFunc(func(SampleVec) { delivered++ }), kernelSampleEvery)
		if p := e.plans[0]; p == old || p.classify != classifyGeneric || !p.sampling {
			t.Fatalf("SetSampler left kernel %d, sampling %v", p.classify, p.sampling)
		}
		tickAndCheck(t, e, src, 2)
		if delivered == 0 {
			t.Fatal("no sample reached the sampler")
		}
	})
	t.Run("AddNode", func(t *testing.T) {
		e, src := kernelEngine(t, shapeNamed(t, "nonshared/exact/pow2/2"), 7)
		tickAndCheck(t, e, src, 1)
		old := e.plans[0]
		if _, _, err := e.AddNode(2); err != nil {
			t.Fatal(err)
		}
		if p := e.plans[0]; p == old || p.slots != e.cfg.NumPartitions || p.buckets != 2*p.slots {
			t.Fatalf("AddNode left the plan at %d slots, %d buckets", p.slots, p.buckets)
		}
		tickAndCheck(t, e, src, 2)
		if got := len(e.tasks[0].buckets); got != e.plans[0].buckets {
			t.Fatalf("task kept %d buckets, plan has %d", got, e.plans[0].buckets)
		}
	})
}
