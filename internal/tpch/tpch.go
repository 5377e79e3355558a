// Package tpch implements the streaming TPC-H workload of the paper's
// evaluation (Section V-B): LINEITEM, ORDERS and CUSTOMER as continuous
// streams ("Lineitem tracks recent orders"), and the fourteen TPC-H
// queries the paper selects — Q1, Q3, Q4, Q5, Q6, Q7, Q8, Q9, Q10,
// Q12, Q14, Q17, Q18, Q19 — recast as windowed stream queries that
// "generate summary reports over the past hour with a sliding window".
//
// The point of this workload in the paper is its *sharing structure*:
// the same large stream (LINEITEM) is consumed by many queries that
// partition it by different columns (l_returnflag+l_linestatus in Q1,
// l_orderkey in Q3, l_partkey in Q8/Q14/Q17/Q19, ...), which is exactly
// what the generators and query definitions here reproduce. Synthetic
// data replaces the SF-100 tables (DESIGN.md §1); key distributions are
// Zipf-skewed with an optional drift knob that rotates the hot keys
// over virtual time, exercising re-optimization (Figs. 9 and 11).
package tpch

import (
	"fmt"
	"math/rand"

	"saspar/internal/engine"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

// LINEITEM column slots.
const (
	LOrderKey   = 0
	LPartKey    = 1
	LSuppKey    = 2
	LQuantity   = 3
	LExtPrice   = 4 // cents
	LDiscount   = 5 // percent
	LTax        = 6
	LReturnFlag = 7 // 0..2 (R, A, N)
	LLineStatus = 8 // 0..1 (O, F)
	LShipMode   = 9 // 0..6
	LBrand      = 10
)

// ORDERS column slots.
const (
	OOrderKey      = 0
	OCustKey       = 1
	OOrderStatus   = 2
	OTotalPrice    = 3
	OOrderPriority = 4 // 0..4
	OShipPriority  = 5
)

// CUSTOMER column slots.
const (
	CCustKey    = 0
	CNationKey  = 1
	CMktSegment = 2 // 0..4
	CAcctBal    = 3
)

// Stream ids within the workload.
const (
	Lineitem = 0
	Orders   = 1
	Customer = 2
)

// Config shapes the workload.
type Config struct {
	// Scale sets entity domain sizes, loosely "scale factor": orders
	// domain = 150_000 × Scale, parts = 20_000 × Scale, etc.
	Scale float64
	// Window is the report window of every query (the paper's example:
	// range 1 h, slide 1 min; benches use scaled-down windows).
	Window engine.WindowSpec
	// Skew is the Zipf-ish exponent of entity popularity (0 = uniform;
	// 1–2 = realistic hot-key skew).
	Skew float64
	// HotFraction of picks concentrate on a HotKeys-sized hot set (the
	// "recent orders" concentration of a streaming TPC-H); it is what
	// makes key-group load macroscopically imbalanced, and under drift
	// the hot set rotates. 0 disables.
	HotFraction float64
	HotKeys     int64
	// DriftPeriod rotates the hot keys every period of virtual time
	// (0 = stationary distributions).
	DriftPeriod vtime.Duration
	// Queries selects which of the fourteen queries to instantiate,
	// by TPC-H number; nil means all fourteen.
	Queries []int
	// LineitemRate is the offered LINEITEM rate (tuples/s); ORDERS runs
	// at 1/4 of it and CUSTOMER at 1/16, mirroring table cardinality
	// ratios.
	LineitemRate float64
}

// DefaultConfig returns a laptop-scale configuration preserving the
// paper's structure.
func DefaultConfig() Config {
	return Config{
		Scale:        1,
		Window:       engine.WindowSpec{Range: 10 * vtime.Second, Slide: 10 * vtime.Second},
		Skew:         1.2,
		HotFraction:  0.25,
		HotKeys:      24,
		LineitemRate: 1e6,
	}
}

// QueryNumbers lists the paper's fourteen TPC-H queries.
func QueryNumbers() []int {
	return []int{1, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 17, 18, 19}
}

// QuerySubset returns the first n of the paper's query order — the
// x-axis sets of Fig. 6 (1 query = Q3 alone, matching the paper's
// single-query choice).
func QuerySubset(n int) []int {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []int{3}
	}
	all := QueryNumbers()
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// New builds the workload.
func New(cfg Config) (*workload.Workload, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("tpch: non-positive scale")
	}
	if cfg.LineitemRate <= 0 {
		return nil, fmt.Errorf("tpch: non-positive rate")
	}
	if cfg.Queries == nil {
		cfg.Queries = QueryNumbers()
	}
	dom := newDomains(cfg.Scale)
	w := &workload.Workload{
		Name: "tpch",
		Streams: []engine.StreamDef{
			{
				Name: "lineitem", NumCols: 11, BytesPerTuple: 144,
				NewSource: func(task int) engine.Source { return newLineitemGen(cfg, dom, task) },
			},
			{
				Name: "orders", NumCols: 6, BytesPerTuple: 96,
				NewSource: func(task int) engine.Source { return newOrdersGen(cfg, dom, task) },
			},
			{
				Name: "customer", NumCols: 4, BytesPerTuple: 72,
				NewSource: func(task int) engine.Source { return newCustomerGen(cfg, dom, task) },
			},
		},
		Rates: []float64{cfg.LineitemRate, cfg.LineitemRate / 4, cfg.LineitemRate / 16},
	}
	for _, qn := range cfg.Queries {
		q, err := Query(qn, cfg.Window)
		if err != nil {
			return nil, err
		}
		w.Queries = append(w.Queries, q)
	}
	return w, w.Validate()
}

// domains holds entity domain sizes.
type domains struct {
	orders, parts, supps, custs int64
}

func newDomains(scale float64) domains {
	d := domains{
		orders: int64(150000 * scale),
		parts:  int64(20000 * scale),
		supps:  int64(1000 * scale),
		custs:  int64(15000 * scale),
	}
	if d.orders < 64 {
		d.orders = 64
	}
	if d.parts < 32 {
		d.parts = 32
	}
	if d.supps < 16 {
		d.supps = 16
	}
	if d.custs < 32 {
		d.custs = 32
	}
	return d
}

// keyDraw is the skew-distributed entity draw every stream shares: with
// probability hotFrac the key comes from a small hot set (macroscopic
// skew hashing cannot average away), otherwise from a u^(1+Skew) Zipf
// tail (uniform for Skew <= 0). The hot region rotates by an offset
// every drift period.
type keyDraw struct {
	pow     *workload.PowCurve
	hotFrac float64
	hotKeys int64
	drift   vtime.Duration
}

func newKeyDraw(cfg Config) keyDraw {
	return keyDraw{
		// Exponent 1 is the uniform draw int64(u·n): math.Pow(u, 1) is u.
		pow:     workload.PowCurveOf(1 + max(cfg.Skew, 0)),
		hotFrac: cfg.HotFraction,
		hotKeys: cfg.HotKeys,
		drift:   cfg.DriftPeriod,
	}
}

// pick draws an entity in [0, n) for a row stamped ts.
func (kd *keyDraw) pick(rng *rand.Rand, n int64, ts vtime.Time) int64 {
	var k int64
	if kd.hotFrac > 0 && kd.hotKeys > 0 && rng.Float64() < kd.hotFrac {
		k = rng.Int63n(min(kd.hotKeys, n))
	} else {
		k = kd.pow.Draw(rng, n)
	}
	if kd.drift > 0 {
		epoch := int64(ts) / int64(kd.drift)
		k = (k + epoch*(n/7+1)) % n
	}
	return k
}

// The generators implement engine.Source natively (plus the row-level
// engine.Generator for tests and CSV sampling): NextBlock runs the
// same per-row draws as Next in ascending row order, writing column
// lanes directly, so batched and tuple-at-a-time execution consume the
// RNG identically and produce byte-identical streams. Drift reads the
// pre-filled TS lane.

type lineitemGen struct {
	kd  keyDraw
	d   domains
	rng *rand.Rand
}

func newLineitemGen(cfg Config, d domains, task int) *lineitemGen {
	return &lineitemGen{kd: newKeyDraw(cfg), d: d, rng: rand.New(rand.NewSource(int64(task)*104729 + 7))}
}

func (g *lineitemGen) Next(t *engine.Tuple, ts vtime.Time) {
	d, rng := g.d, g.rng
	t.Cols[LOrderKey] = g.kd.pick(rng, d.orders, ts)
	t.Cols[LPartKey] = g.kd.pick(rng, d.parts, ts)
	t.Cols[LSuppKey] = g.kd.pick(rng, d.supps, ts)
	t.Cols[LQuantity] = 1 + rng.Int63n(50)
	t.Cols[LExtPrice] = 100 + rng.Int63n(9999900)
	t.Cols[LDiscount] = rng.Int63n(11)
	t.Cols[LTax] = rng.Int63n(9)
	t.Cols[LReturnFlag] = rng.Int63n(3)
	t.Cols[LLineStatus] = rng.Int63n(2)
	t.Cols[LShipMode] = rng.Int63n(7)
	t.Cols[LBrand] = rng.Int63n(25)
}

func (g *lineitemGen) NextBlock(b *engine.TupleBlock, from, to int) {
	d, rng := g.d, g.rng
	for r := from; r < to; r++ {
		ts := b.TS[r]
		b.Col[LOrderKey][r] = g.kd.pick(rng, d.orders, ts)
		b.Col[LPartKey][r] = g.kd.pick(rng, d.parts, ts)
		b.Col[LSuppKey][r] = g.kd.pick(rng, d.supps, ts)
		b.Col[LQuantity][r] = 1 + rng.Int63n(50)
		b.Col[LExtPrice][r] = 100 + rng.Int63n(9999900)
		b.Col[LDiscount][r] = rng.Int63n(11)
		b.Col[LTax][r] = rng.Int63n(9)
		b.Col[LReturnFlag][r] = rng.Int63n(3)
		b.Col[LLineStatus][r] = rng.Int63n(2)
		b.Col[LShipMode][r] = rng.Int63n(7)
		b.Col[LBrand][r] = rng.Int63n(25)
	}
}

type ordersGen struct {
	kd  keyDraw
	d   domains
	rng *rand.Rand
}

func newOrdersGen(cfg Config, d domains, task int) *ordersGen {
	return &ordersGen{kd: newKeyDraw(cfg), d: d, rng: rand.New(rand.NewSource(int64(task)*104729 + 11))}
}

func (g *ordersGen) Next(t *engine.Tuple, ts vtime.Time) {
	d, rng := g.d, g.rng
	t.Cols[OOrderKey] = g.kd.pick(rng, d.orders, ts)
	t.Cols[OCustKey] = g.kd.pick(rng, d.custs, ts)
	t.Cols[OOrderStatus] = rng.Int63n(3)
	t.Cols[OTotalPrice] = 1000 + rng.Int63n(50000000)
	t.Cols[OOrderPriority] = rng.Int63n(5)
	t.Cols[OShipPriority] = rng.Int63n(2)
}

func (g *ordersGen) NextBlock(b *engine.TupleBlock, from, to int) {
	d, rng := g.d, g.rng
	for r := from; r < to; r++ {
		ts := b.TS[r]
		b.Col[OOrderKey][r] = g.kd.pick(rng, d.orders, ts)
		b.Col[OCustKey][r] = g.kd.pick(rng, d.custs, ts)
		b.Col[OOrderStatus][r] = rng.Int63n(3)
		b.Col[OTotalPrice][r] = 1000 + rng.Int63n(50000000)
		b.Col[OOrderPriority][r] = rng.Int63n(5)
		b.Col[OShipPriority][r] = rng.Int63n(2)
	}
}

type customerGen struct {
	kd  keyDraw
	d   domains
	rng *rand.Rand
}

func newCustomerGen(cfg Config, d domains, task int) *customerGen {
	return &customerGen{kd: newKeyDraw(cfg), d: d, rng: rand.New(rand.NewSource(int64(task)*104729 + 13))}
}

func (g *customerGen) Next(t *engine.Tuple, ts vtime.Time) {
	d, rng := g.d, g.rng
	t.Cols[CCustKey] = g.kd.pick(rng, d.custs, ts)
	t.Cols[CNationKey] = rng.Int63n(25)
	t.Cols[CMktSegment] = rng.Int63n(5)
	t.Cols[CAcctBal] = rng.Int63n(1000000)
}

func (g *customerGen) NextBlock(b *engine.TupleBlock, from, to int) {
	d, rng := g.d, g.rng
	for r := from; r < to; r++ {
		ts := b.TS[r]
		b.Col[CCustKey][r] = g.kd.pick(rng, d.custs, ts)
		b.Col[CNationKey][r] = rng.Int63n(25)
		b.Col[CMktSegment][r] = rng.Int63n(5)
		b.Col[CAcctBal][r] = rng.Int63n(1000000)
	}
}

// Query returns the streaming form of TPC-H query qn over the given
// window. Filter IDs are the TPC-H query number, so distinct predicates
// never share a route class while identical ones do.
func Query(qn int, win engine.WindowSpec) (engine.QuerySpec, error) {
	agg := func(key engine.KeySpec, aggCol int, sel float64) engine.QuerySpec {
		return engine.QuerySpec{
			ID:   fmt.Sprintf("tpch-q%d", qn),
			Kind: engine.OpAggregate,
			Inputs: []engine.Input{{
				Stream: Lineitem, Key: key, Selectivity: sel,
				FilterID: filterID(qn, sel),
			}},
			Window: win,
			AggCol: aggCol,
		}
	}
	loJoin := func(sel float64) engine.QuerySpec {
		return engine.QuerySpec{
			ID:   fmt.Sprintf("tpch-q%d", qn),
			Kind: engine.OpJoin,
			Inputs: []engine.Input{
				{Stream: Lineitem, Key: engine.KeySpec{LOrderKey}, Selectivity: sel, FilterID: filterID(qn, sel)},
				{Stream: Orders, Key: engine.KeySpec{OOrderKey}},
			},
			Window:     win,
			JoinFanout: 0.5,
		}
	}
	switch qn {
	case 1:
		// Pricing summary report: GROUP BY l_returnflag, l_linestatus.
		return agg(engine.KeySpec{LReturnFlag, LLineStatus}, LQuantity, 1.0), nil
	case 3:
		// Shipping priority: LINEITEM ⋈ ORDERS on l_orderkey.
		return loJoin(1.0), nil
	case 4:
		// Order priority checking: the L⋈O semi-join with the commit <
		// receipt predicate (selectivity ~0.5).
		return loJoin(0.5), nil
	case 5:
		// Local supplier volume: revenue grouped by supplier.
		return agg(engine.KeySpec{LSuppKey}, LExtPrice, 1.0), nil
	case 6:
		// Forecasting revenue change: tight predicate, grouped by
		// discount bucket.
		return agg(engine.KeySpec{LDiscount}, LExtPrice, 0.15), nil
	case 7:
		// Volume shipping: L⋈O with the nation predicate.
		return loJoin(0.3), nil
	case 8:
		// National market share: revenue by part.
		return agg(engine.KeySpec{LPartKey}, LExtPrice, 1.0), nil
	case 9:
		// Product type profit: grouped by part and supplier.
		return agg(engine.KeySpec{LPartKey, LSuppKey}, LExtPrice, 1.0), nil
	case 10:
		// Returned item reporting: ORDERS ⋈ CUSTOMER on custkey.
		return engine.QuerySpec{
			ID:   "tpch-q10",
			Kind: engine.OpJoin,
			Inputs: []engine.Input{
				{Stream: Orders, Key: engine.KeySpec{OCustKey}},
				{Stream: Customer, Key: engine.KeySpec{CCustKey}},
			},
			Window:     win,
			JoinFanout: 0.5,
		}, nil
	case 12:
		// Shipping modes and order priority: L⋈O, ship-mode predicate.
		return loJoin(0.25), nil
	case 14:
		// Promotion effect: promo parts only, grouped by part.
		return agg(engine.KeySpec{LPartKey}, LExtPrice, 0.2), nil
	case 17:
		// Small-quantity-order revenue: quantity predicate, by part.
		return agg(engine.KeySpec{LPartKey}, LExtPrice, 0.1), nil
	case 18:
		// Large volume customer: grouped by order.
		return agg(engine.KeySpec{LOrderKey}, LQuantity, 1.0), nil
	case 19:
		// Discounted revenue: brand/container predicate, by brand.
		return agg(engine.KeySpec{LBrand}, LExtPrice, 0.08), nil
	default:
		return engine.QuerySpec{}, fmt.Errorf("tpch: query %d not in the paper's set %v", qn, QueryNumbers())
	}
}

// filterID keys route-class filter identity: queries with the same
// selectivity class share an id only when they are the same query.
func filterID(qn int, sel float64) int {
	if sel >= 1 {
		return 0 // no filter: all full-stream queries share
	}
	return qn
}
