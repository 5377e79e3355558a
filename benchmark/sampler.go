package main

import (
	"sort"
	"sync"
	"time"

	srt "saspar/internal/runtime"
)

// sample is one reading of the server's public report.
type sample struct {
	at         time.Duration // wall time since the timeline's epoch
	rows       int64         // Report().IngestedRows
	results    int           // result count of the probed query
	allResults int           // result count of all queries
	vt         time.Duration // the server's virtual clock
}

// timeline is the sampled history of a serving run. Latency is read
// from it after the run: the first sample at which a count covers a
// frame is when the outside world could have seen it.
type timeline struct {
	mu      sync.Mutex
	samples []sample
}

func (t *timeline) add(s sample) {
	t.mu.Lock()
	t.samples = append(t.samples, s)
	t.mu.Unlock()
}

func (t *timeline) last() (sample, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.samples) == 0 {
		return sample{}, false
	}
	return t.samples[len(t.samples)-1], true
}

// waitFor polls the newest sample until ok accepts it or the timeout
// passes.
func (t *timeline) waitFor(ok func(sample) bool, timeout time.Duration) (sample, bool) {
	deadline := time.Now().Add(timeout)
	for {
		if s, have := t.last(); have && ok(s) {
			return s, true
		}
		if time.Now().After(deadline) {
			return sample{}, false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitRows waits until the timeline shows n ingested rows and returns
// the time of the first sample that did.
func (t *timeline) waitRows(n int64, timeout time.Duration) (time.Duration, bool) {
	if _, ok := t.waitFor(func(s sample) bool { return s.rows >= n }, timeout); !ok {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.firstRows(n)
}

// The lookups below read the samples without the lock: call them once
// the sampler has halted, or with mu held.

// firstRows returns the time of the first sample whose ingested row
// count is at least n; false when no sample reached it.
func (t *timeline) firstRows(n int64) (time.Duration, bool) {
	i := sort.Search(len(t.samples), func(i int) bool { return t.samples[i].rows >= n })
	if i == len(t.samples) {
		return 0, false
	}
	return t.samples[i].at, true
}

// firstResults returns the time of the first sample at which at least
// n results of the probed query were visible.
func (t *timeline) firstResults(n int) (time.Duration, bool) {
	i := sort.Search(len(t.samples), func(i int) bool { return t.samples[i].results >= n })
	if i == len(t.samples) {
		return 0, false
	}
	return t.samples[i].at, true
}

// at returns the last sample taken at or before wall time d.
func (t *timeline) at(d time.Duration) (sample, bool) {
	i := sort.Search(len(t.samples), func(i int) bool { return t.samples[i].at > d })
	if i == 0 {
		return sample{}, false
	}
	return t.samples[i-1], true
}

// samplePeriod is how often the sampler reads the report. Report takes
// the serve loop's lock, so while a tick runs the reading waits and
// lands right after it: the resolution is one tick or this period,
// whichever is longer.
const samplePeriod = 500 * time.Microsecond

// sampler polls Server.Report from its own goroutine until stopped.
type sampler struct {
	tl   *timeline
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

func startSampler(srv *srt.Server, probeQuery int, epoch time.Time) *sampler {
	s := &sampler{tl: &timeline{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			select {
			case <-s.stop:
				return
			default:
			}
			s.tl.add(readSample(srv, probeQuery, epoch))
			time.Sleep(samplePeriod)
		}
	}()
	return s
}

// halt stops the sampler and waits for its goroutine; the timeline
// may be read without its lock afterwards.
func (s *sampler) halt() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

func readSample(srv *srt.Server, probeQuery int, epoch time.Time) sample {
	rep := srv.Report()
	vt, _ := time.ParseDuration(rep.VirtualTime) // the report renders its clock with Duration.String
	all := 0
	for _, q := range rep.Queries {
		all += q.Results
	}
	return sample{
		at:         time.Since(epoch),
		rows:       rep.IngestedRows,
		results:    rep.Queries[probeQuery].Results,
		allResults: all,
		vt:         vt,
	}
}
