package engine

import (
	"math"
	"sort"

	"saspar/internal/vtime"
)

// Metrics accumulates the run-level measurements the paper reports:
// per-query processed tuple counts (throughput), a weighted event-time
// latency distribution (Fig. 7's averages and error bars), reshuffled
// tuple counts (Fig. 9), and JIT accounting (Fig. 12b).
//
// Event-time latency here is the interval between a tuple's event time
// and the moment the post-partition operator absorbs it — network
// serialization, queueing and processing delays, but not the inherent
// residence of a tuple inside its window (see DESIGN.md).
//
// Sharded accumulation: the hot-path record* calls take the cluster
// node whose worker produced the sample and write a per-node partial.
// Reads fold the partials in node-ID order, so every reported number is
// a fixed-order float sum regardless of how many shard workers executed
// the tick — the foundation of the engine's byte-identical-at-any-
// worker-count contract. Nodes are the partition unit (not workers)
// precisely so the fold order cannot depend on the worker count.
type Metrics struct {
	parts []metricsPart // one per cluster node, folded in index order

	reshuffled float64 // weighted tuples sent back to sources (Fig. 9);
	// written only from the engine's sequential merge phases, so it
	// needs no per-node split.

	// removed tombstones per-query rows of ad-hoc queries retired by
	// RemoveQuery: their rows are zeroed and excluded from further
	// accumulation so a departed query cannot skew averaged throughput
	// or the weighted latency distribution.
	removed []bool

	measuring   bool
	measureFrom vtime.Time
	measureTo   vtime.Time
}

// metricsPart is one node's share of the run metrics. Each part is
// written only by the shard worker that owns the node (or the merge
// phase, which attributes its records to a deterministic node), so the
// tick loop records without synchronization.
type metricsPart struct {
	processed []float64 // per query, weighted tuples absorbed post-partition
	emitted   []float64 // per query, weighted window results emitted

	lat latDist

	// qlat keeps each query's share of this part's latency moments so a
	// retired query's absorbed samples can be subtracted back out.
	qlat []latMoments

	jitCompiles int
	jitTime     vtime.Duration

	// True sharing accounting (shared partitioner only): copies the
	// queries demanded vs physical copies shipped.
	shDemand, shPhysical float64
}

// newMetrics sizes the per-query slices for numQueries queries and
// numParts per-node partials (at least one).
func newMetrics(numQueries, numParts int) *Metrics {
	if numParts < 1 {
		numParts = 1
	}
	m := &Metrics{
		parts:   make([]metricsPart, numParts),
		removed: make([]bool, numQueries),
	}
	for i := range m.parts {
		m.parts[i] = metricsPart{
			processed: make([]float64, numQueries),
			emitted:   make([]float64, numQueries),
			qlat:      make([]latMoments, numQueries),
		}
	}
	return m
}

// addNode appends one per-node partial for a node that joined at
// runtime, sized to the current query population. Existing partials
// are untouched, so the fixed fold order over parts stays a prefix of
// the old one and pre-join sums are unchanged.
func (m *Metrics) addNode() {
	nq := len(m.removed)
	m.parts = append(m.parts, metricsPart{
		processed: make([]float64, nq),
		emitted:   make([]float64, nq),
		qlat:      make([]latMoments, nq),
	})
}

// addQuery extends the per-query slices for an ad-hoc arrival.
func (m *Metrics) addQuery() {
	for i := range m.parts {
		p := &m.parts[i]
		p.processed = append(p.processed, 0)
		p.emitted = append(p.emitted, 0)
		p.qlat = append(p.qlat, latMoments{})
	}
	m.removed = append(m.removed, false)
}

// removeQuery tombstones a retired query's rows. Whatever the query
// accumulated inside the current measurement window is discarded —
// including its share of the weighted latency distribution, which is
// subtracted back out of every node partial — and the rows stay
// excluded for the rest of the run (query indexes are stable, so rows
// are never compacted away).
func (m *Metrics) removeQuery(q int) {
	for i := range m.parts {
		p := &m.parts[i]
		p.processed[q] = 0
		p.emitted[q] = 0
		p.lat.subtract(p.qlat[q], q)
		p.qlat[q] = latMoments{}
	}
	m.removed[q] = true
}

// StartMeasurement begins the measurement window at virtual time t,
// discarding anything accumulated during warm-up.
func (m *Metrics) StartMeasurement(t vtime.Time) {
	for i := range m.parts {
		p := &m.parts[i]
		for j := range p.processed {
			p.processed[j] = 0
			p.emitted[j] = 0
			p.qlat[j] = latMoments{}
		}
		p.lat = latDist{}
		p.jitCompiles = 0
		p.jitTime = 0
		p.shDemand = 0
		p.shPhysical = 0
	}
	m.reshuffled = 0
	m.measuring = true
	m.measureFrom = t
}

// StopMeasurement ends the measurement window at virtual time t.
func (m *Metrics) StopMeasurement(t vtime.Time) {
	m.measuring = false
	m.measureTo = t
}

func (m *Metrics) recordProcessed(part, query int, weight float64) {
	if m.measuring && !m.removed[query] {
		m.parts[part].processed[query] += weight
	}
}

func (m *Metrics) recordEmitted(part, query int, weight float64) {
	if m.measuring && !m.removed[query] {
		m.parts[part].emitted[query] += weight
	}
}

func (m *Metrics) recordLatency(part, query int, d vtime.Duration, weight float64) {
	if m.measuring && !m.removed[query] {
		x := d.Seconds()
		p := &m.parts[part]
		p.lat.add(x, weight, query)
		p.qlat[query].add(x, weight)
	}
}

// recordLatencyRun folds one classRun's latency population in a single
// update: k rows of per-row weight weightPer whose latency sum is
// sumLatNs nanoseconds and squared-latency sum sumLat2Ns2 ns². The
// moment sums land exactly (they are linear in the inputs); the
// reservoir receives one sample — the run's mean latency — per run
// rather than one per row, a deliberate coarsening of the quantile
// estimate that stays deterministic and batch-size independent.
func (m *Metrics) recordLatencyRun(part, query int, sumLatNs, sumLat2Ns2, weightPer float64, k int64) {
	if !m.measuring || m.removed[query] || weightPer <= 0 || k <= 0 {
		return
	}
	const sec = float64(vtime.Second)
	w := weightPer * float64(k)
	s1 := weightPer * sumLatNs / sec
	s2 := weightPer * sumLat2Ns2 / (sec * sec)
	mean := sumLatNs / float64(k) / sec
	p := &m.parts[part]
	p.lat.addMoments(w, s1, s2, mean, query)
	ql := &p.qlat[query]
	ql.w += w
	ql.s1 += s1
	ql.s2 += s2
}

func (m *Metrics) recordReshuffle(weight float64) {
	if m.measuring {
		m.reshuffled += weight
	}
}

func (m *Metrics) recordJIT(part, n int, d vtime.Duration) {
	if m.measuring {
		m.parts[part].jitCompiles += n
		m.parts[part].jitTime += d
	}
}

func (m *Metrics) recordSharing(part int, demand, physical float64) {
	if m.measuring {
		m.parts[part].shDemand += demand
		m.parts[part].shPhysical += physical
	}
}

// SharingRatio reports the measured tuple-level sharing of the shared
// partitioner: demanded copies per physical copy (1 = no sharing,
// k = every tuple served k queries per transfer). This is the runtime
// ground truth the alignment-only model of Eq. 4 underestimates —
// cross-group partition coincidences count here but not there.
func (m *Metrics) SharingRatio() float64 {
	var demand, physical float64
	for i := range m.parts {
		demand += m.parts[i].shDemand
		physical += m.parts[i].shPhysical
	}
	if physical == 0 {
		return 1
	}
	return demand / physical
}

// MeasuredSeconds reports the length of the measurement window in
// virtual seconds.
func (m *Metrics) MeasuredSeconds() float64 {
	return m.measureTo.Sub(m.measureFrom).Seconds()
}

// OverallThroughput is the paper's headline metric: the sum of the data
// throughputs of all running queries, in modelled tuples per virtual
// second.
func (m *Metrics) OverallThroughput() float64 {
	s := m.MeasuredSeconds()
	if s <= 0 {
		return 0
	}
	return m.ProcessedTotal() / s
}

// QueryThroughput reports one query's processed rate.
func (m *Metrics) QueryThroughput(q int) float64 {
	s := m.MeasuredSeconds()
	if s <= 0 {
		return 0
	}
	var p float64
	for i := range m.parts {
		p += m.parts[i].processed[q]
	}
	return p / s
}

// ProcessedTotal reports the weighted tuple count absorbed across all
// queries during measurement.
func (m *Metrics) ProcessedTotal() float64 {
	var total float64
	for i := range m.parts {
		for _, p := range m.parts[i].processed {
			total += p
		}
	}
	return total
}

// EmittedTotal reports the weighted window results emitted.
func (m *Metrics) EmittedTotal() float64 {
	var total float64
	for i := range m.parts {
		for _, e := range m.parts[i].emitted {
			total += e
		}
	}
	return total
}

// foldLat folds the per-node latency moments in node order.
func (m *Metrics) foldLat() latMoments {
	var acc latMoments
	for i := range m.parts {
		lm := m.parts[i].lat.latMoments
		acc.w += lm.w
		acc.s1 += lm.s1
		acc.s2 += lm.s2
	}
	return acc
}

// AvgLatency reports the weighted mean event-time latency.
func (m *Metrics) AvgLatency() vtime.Duration {
	lm := m.foldLat()
	if lm.w == 0 {
		return 0
	}
	return vtime.Duration(lm.s1 / lm.w * float64(vtime.Second))
}

// LatencyStddev reports the weighted standard deviation of event-time
// latency (the paper's error bars).
func (m *Metrics) LatencyStddev() vtime.Duration {
	lm := m.foldLat()
	if lm.w == 0 {
		return 0
	}
	mean := lm.s1 / lm.w
	v := lm.s2/lm.w - mean*mean
	if v < 0 {
		v = 0
	}
	return vtime.Duration(math.Sqrt(v) * float64(vtime.Second))
}

// LatencyQuantile reports an approximate weighted latency quantile
// (q in [0,1]) from the per-node sampled reservoirs, concatenated in
// node order before sorting so the answer is shard-count independent.
func (m *Metrics) LatencyQuantile(q float64) vtime.Duration {
	var s []float64
	for i := range m.parts {
		s = append(s, m.parts[i].lat.samples...)
	}
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return vtime.Duration(s[i] * float64(vtime.Second))
}

// Reshuffled reports the weighted count of tuples sent back to source
// operators by iterator guards (Fig. 9's metric).
func (m *Metrics) Reshuffled() float64 { return m.reshuffled }

// JITCompiles reports how many operator compilations ran.
func (m *Metrics) JITCompiles() int {
	var n int
	for i := range m.parts {
		n += m.parts[i].jitCompiles
	}
	return n
}

// JITTime reports total virtual time spent in operator compilation.
func (m *Metrics) JITTime() vtime.Duration {
	var d vtime.Duration
	for i := range m.parts {
		d += m.parts[i].jitTime
	}
	return d
}

// latMoments holds the weighted moment sums (Σw, Σwx, Σwx²) of a
// latency population. Plain sums rather than a Welford recurrence: sums
// subtract exactly, which is what removing a retired query's share from
// the global distribution requires.
type latMoments struct {
	w, s1, s2 float64
}

func (a *latMoments) add(x, w float64) {
	a.w += w
	a.s1 += x * w
	a.s2 += x * x * w
}

// latDist is a weighted moment accumulator plus a coarse reservoir for
// quantiles. Weights are modelled-tuple multiplicities. The reservoir
// is a fixed-size ring allocated once at first use, so the tick loop
// never grows a slice while recording latencies; sampleQ attributes
// each reservoir slot to the query whose tuple produced it, so a
// retired query's samples can be compacted away.
type latDist struct {
	latMoments
	samples []float64 // fixed-size ring reservoir for quantiles
	sampleQ []int32   // reservoir slot -> query index
	nSeen   int
}

const latReservoir = 4096

func (d *latDist) add(x, w float64, query int) {
	if w <= 0 {
		return
	}
	d.latMoments.add(x, w)
	d.sample(x, query)
}

// addMoments folds pre-summed moments (Σw, Σwx, Σwx²) plus one
// reservoir sample — the folded-run counterpart of add.
func (d *latDist) addMoments(w, s1, s2, sampleX float64, query int) {
	d.w += w
	d.s1 += s1
	d.s2 += s2
	d.sample(sampleX, query)
}

func (d *latDist) sample(x float64, query int) {
	if d.samples == nil {
		d.samples = make([]float64, 0, latReservoir)
		d.sampleQ = make([]int32, 0, latReservoir)
	}
	d.nSeen++
	if len(d.samples) < latReservoir {
		d.samples = append(d.samples, x)
		d.sampleQ = append(d.sampleQ, int32(query))
	} else {
		// Deterministic ring: replace a rotating slot; adequate for
		// coarse quantiles over a stationary measurement window.
		i := d.nSeen % latReservoir
		d.samples[i] = x
		d.sampleQ[i] = int32(query)
	}
}

// subtract removes one query's share — its moment sums and its
// reservoir samples — from the distribution. Tiny negative residues
// from float cancellation are clamped to an empty distribution.
func (d *latDist) subtract(q latMoments, query int) {
	d.w -= q.w
	d.s1 -= q.s1
	d.s2 -= q.s2
	if d.w < 1e-12 {
		d.latMoments = latMoments{}
	}
	keep, keepQ := d.samples[:0], d.sampleQ[:0]
	for i, x := range d.samples {
		if int(d.sampleQ[i]) != query {
			keep = append(keep, x)
			keepQ = append(keepQ, d.sampleQ[i])
		}
	}
	d.samples, d.sampleQ = keep, keepQ
	d.nSeen = len(keep)
}
