package engine

import (
	"testing"

	"saspar/internal/vtime"
)

func TestResultLogOrderAcrossPages(t *testing.T) {
	var l resultLog
	add := func(from, to int) {
		for i := from; i < to; i++ {
			l.add(AggResult{Key: uint64(i)})
		}
	}
	check := func(rs []AggResult) {
		t.Helper()
		if len(rs) != l.n {
			t.Fatalf("all() has %d entries, log holds %d", len(rs), l.n)
		}
		for i := range rs {
			if rs[i].Key != uint64(i) {
				t.Fatalf("entry %d holds key %d: emission order lost", i, rs[i].Key)
			}
		}
	}
	if rs := l.all(); len(rs) != 0 {
		t.Fatalf("empty log returned %d entries", len(rs))
	}
	// Stop mid-page, read, then go on across two page boundaries: the
	// second read extends the first and the first stays valid.
	add(0, resultPageRows+17)
	first := l.all()
	check(first)
	add(resultPageRows+17, 3*resultPageRows+5)
	check(l.all())
	check(l.all()) // nothing new: same slice again
	if len(first) != resultPageRows+17 || first[len(first)-1].Key != uint64(resultPageRows+16) {
		t.Fatal("a slice handed out earlier changed under later appends")
	}
	if len(l.pages) != 4 {
		t.Fatalf("%d pages for %d entries of %d a page", len(l.pages), l.n, resultPageRows)
	}
}

// Appending allocates a page per resultPageRows entries and, now and
// then, a longer page table; it never copies the pages themselves. The
// old single slice re-copied everything at each growth step.
func TestResultLogAppendCopiesNoPages(t *testing.T) {
	const pages = 64
	var l resultLog
	allocs := testing.AllocsPerRun(1, func() {
		l = resultLog{}
		for i := 0; i < pages*resultPageRows; i++ {
			l.add(AggResult{Key: uint64(i)})
		}
	})
	// One allocation per page plus the doublings of the page table.
	if limit := float64(pages + 8); allocs > limit {
		t.Fatalf("%v allocations for %d pages, want at most %v", allocs, pages, limit)
	}
	first := &l.pages[0][0]
	l.add(AggResult{})
	if first != &l.pages[0][0] {
		t.Fatal("an append moved the first page")
	}
}

func TestResultCountMatchesResults(t *testing.T) {
	e, err := New(lightConfig(), []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("q0", 0)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 200)
	e.Run(4 * vtime.Second)
	qi, err := e.AddQuery(aggQuery("q1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if e.ResultCount(qi) != 0 || len(e.Results(qi)) != 0 {
		t.Fatal("a query added at run time starts with results")
	}
	seen := e.ResultCount(0)
	if seen == 0 || seen != len(e.Results(0)) {
		t.Fatalf("ResultCount %d, len(Results) %d", seen, len(e.Results(0)))
	}
	e.Run(4 * vtime.Second)
	for q := 0; q <= qi; q++ {
		if n := e.ResultCount(q); n == 0 || n != len(e.Results(q)) {
			t.Fatalf("query %d: ResultCount %d, len(Results) %d", q, n, len(e.Results(q)))
		}
	}
	if e.ResultCount(0) <= seen {
		t.Fatal("no result was logged after the first read")
	}
	// The log is in emission order: windows never go backwards.
	rs := e.Results(0)
	for i := 1; i < len(rs); i++ {
		if rs[i].Win < rs[i-1].Win {
			t.Fatalf("result %d closes window %v after %v", i, rs[i].Win, rs[i-1].Win)
		}
	}
}
