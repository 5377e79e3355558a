package engine

// resultPageRows is the size of one page of a query's result log:
// 160 KB of AggResults, one window of the serving benchmark's
// aggregation.
const resultPageRows = 4096

// resultLog is one query's emitted window results, in emission order.
// It is append-only and the serve loop appends to it for as long as the
// process lives, so it is stored in fixed-size pages: an append never
// copies what is already logged, and the collector never sees an old
// and a new copy of the whole log live at once.
type resultLog struct {
	pages [][]AggResult // every page but the last is full
	n     int

	// flat is the contiguous copy Results hands out, valid for the first
	// len(flat) entries; it is extended, not rebuilt, on the next call.
	flat []AggResult
}

func (l *resultLog) add(r AggResult) {
	if l.n == len(l.pages)*resultPageRows {
		l.pages = append(l.pages, make([]AggResult, 0, resultPageRows))
	}
	last := &l.pages[len(l.pages)-1]
	*last = append(*last, r)
	l.n++
}

// all returns the whole log as one slice, copying only the entries
// added since the previous call.
func (l *resultLog) all() []AggResult {
	for len(l.flat) < l.n {
		at := len(l.flat)
		page := l.pages[at/resultPageRows]
		l.flat = append(l.flat, page[at%resultPageRows:]...)
	}
	return l.flat
}
