package runtime

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"saspar/internal/core"
	"saspar/internal/engine"
	"saspar/internal/obs"
	"saspar/internal/workload"
)

// Config shapes one serving instance.
type Config struct {
	// Workload defines the streams and queries to serve. Rates are
	// ignored — offered load is whatever arrives.
	Workload *workload.Workload

	// Engine and Core configure the system under the serving loop,
	// exactly as the virtual-time driver would. TupleWeight should be 1
	// for real tuples.
	Engine engine.Config
	Core   core.Config

	// Addr is the TCP listen address for the binary framing protocol
	// (wire.go); empty disables the TCP front-end.
	Addr string

	// HTTPAddr serves POST /ingest (JSON rows), GET /report (JSON
	// serving report) and GET /metrics (Prometheus text format); empty
	// disables the HTTP front-end.
	HTTPAddr string

	// RingBlocks is the per-(stream, task) ingest ring capacity in
	// blocks (default 64); BlockRows the rows per ingest block
	// (default 4096). Ring memory is roughly
	// streams × tasks × RingBlocks × BlockRows × cols × 8 bytes.
	RingBlocks int
	BlockRows  int

	// IdleSleep is the wall-clock pause between engine ticks when no
	// ingest ring has pending blocks (default 1ms). Idle ticks still
	// run so open windows keep draining after ingest stops.
	IdleSleep time.Duration
}

func (c *Config) withDefaults() {
	if c.RingBlocks <= 0 {
		c.RingBlocks = 64
	}
	if c.BlockRows <= 0 {
		c.BlockRows = 4096
	}
	if c.BlockRows > MaxFrameRows {
		c.BlockRows = MaxFrameRows
	}
	if c.IdleSleep <= 0 {
		c.IdleSleep = time.Millisecond
	}
}

// Server drives a virtual-time SASPAR system with wall-clock tuples.
// One goroutine (the serve loop) owns the engine and steps it one tick
// at a time; ingest front-ends only ever touch the lock-free rings, so
// the hot path from socket to router crosses no mutex. The clock
// translation is the engine's feed contract: rows claimed in a tick
// are stamped with event times spread evenly across that tick, which
// keeps watermarks, windows, AQE and checkpointing byte-compatible
// with the virtual-time path.
type Server struct {
	cfg    Config
	sys    *core.System
	reg    *obs.Registry
	queues [][]*BlockQueue // [stream][task]

	// mu serializes engine access between the serve loop and report
	// snapshots; the data plane never takes it.
	mu sync.Mutex

	tcpLn   net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	// connMu guards conns, the set of live ingest connections. Stop
	// closes them after halting the serve loop: a producer that keeps
	// writing would otherwise hold its serveConn goroutine — and
	// Stop's wg.Wait — forever, since closing the listener only stops
	// NEW connections.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// cRefused counts HTTP ingest requests bounced with 503 because
	// the target ring stayed full: refused rows are the producer's to
	// retry, never silently dropped.
	cRefused *obs.Counter

	start    time.Time
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup
}

// NewServer builds the system and its ingest rings. Call Start to
// listen and serve.
func NewServer(cfg Config) (*Server, error) {
	cfg.withDefaults()
	if cfg.Workload == nil {
		return nil, fmt.Errorf("runtime: no workload")
	}
	if err := cfg.Workload.Validate(); err != nil {
		return nil, err
	}
	if cfg.Core.Obs == nil {
		cfg.Core.Obs = obs.New()
	}
	sys, err := core.New(cfg.Engine, cfg.Workload.Streams, cfg.Workload.Queries, cfg.Core)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		sys:   sys,
		reg:   cfg.Core.Obs,
		conns: make(map[net.Conn]struct{}),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.cRefused = s.reg.Counter("serve_ingest_refused_total",
		"HTTP ingest requests refused with 503 because the target ring stayed full.")
	tasks := sys.Engine().Config().SourceTasks
	for si, def := range cfg.Workload.Streams {
		qs := make([]*BlockQueue, tasks)
		for t := 0; t < tasks; t++ {
			q := NewBlockQueue(cfg.RingBlocks, cfg.BlockRows, def.NumCols, s.reg, engine.StreamID(si), t)
			if err := sys.Engine().SetBlockFeed(engine.StreamID(si), t, q); err != nil {
				return nil, err
			}
			qs[t] = q
		}
		s.queues = append(s.queues, qs)
	}
	return s, nil
}

// System exposes the served system (read it only while the server is
// stopped, or via Report while running).
func (s *Server) System() *core.System { return s.sys }

// Queue returns the ingest queue of (stream, task), or nil when out of
// range — the handle in-process producers (the loopback bench) feed.
func (s *Server) Queue(stream engine.StreamID, task int) *BlockQueue {
	if int(stream) >= len(s.queues) || task >= len(s.queues[stream]) {
		return nil
	}
	return s.queues[stream][task]
}

// Addr returns the bound TCP ingest address ("" when disabled); valid
// after Start.
func (s *Server) Addr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// HTTPAddr returns the bound HTTP address ("" when disabled); valid
// after Start.
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Start binds the configured listeners and launches the serve loop.
func (s *Server) Start() error {
	// Stamp before any listener goroutine exists: a /report landing the
	// instant Serve starts must not race this write.
	s.start = time.Now()
	if s.cfg.Addr != "" {
		ln, err := net.Listen("tcp", s.cfg.Addr)
		if err != nil {
			return err
		}
		s.tcpLn = ln
		s.wg.Add(1)
		go s.acceptLoop(ln)
	}
	if s.cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			if s.tcpLn != nil {
				s.tcpLn.Close()
			}
			return err
		}
		s.httpLn = ln
		mux := http.NewServeMux()
		mux.HandleFunc("/ingest", s.handleIngest)
		mux.HandleFunc("/report", s.handleReport)
		mux.HandleFunc("/metrics", s.handleMetrics)
		s.httpSrv = &http.Server{Handler: mux}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.httpSrv.Serve(ln)
		}()
	}
	go s.loop()
	return nil
}

// Stop halts the serve loop, shuts the listeners, force-closes live
// ingest connections and waits for every handler to finish. It does not
// wait for an optimizer solve in flight: the solver delivers into a
// buffered channel inside its own budget and is collected. Idempotent
// and safe to call concurrently. The system stays inspectable
// afterwards.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		<-s.done
		if s.tcpLn != nil {
			s.tcpLn.Close()
		}
		// Closing the listener only stops NEW connections; a producer
		// that keeps streaming frames would hold its serveConn
		// goroutine — and wg.Wait below — forever. Close live conns so
		// their blocking reads fail and the handlers drain.
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		if s.httpSrv != nil {
			// Shutdown (unlike Close) waits for in-flight handlers, so
			// an /ingest racing Stop either finishes its Offer or gets
			// its 503 — never a half-written response.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			s.httpSrv.Shutdown(ctx)
			cancel()
		}
		s.wg.Wait()
	})
}

// loop is the serve loop: one engine tick per iteration, run
// back-to-back while any ingest ring has pending blocks and at a
// relaxed pace otherwise (idle ticks drain open windows; the engine's
// feed tasks simply claim zero rows). It is the only goroutine that
// touches the engine while the server runs.
func (s *Server) loop() {
	defer close(s.done)
	tick := s.sys.Engine().Config().Tick
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		pending := false
		for _, qs := range s.queues {
			for _, q := range qs {
				if q.Pending() > 0 {
					pending = true
				}
			}
		}
		s.mu.Lock()
		err := s.sys.Run(tick)
		s.mu.Unlock()
		if err != nil {
			return
		}
		if !pending {
			time.Sleep(s.cfg.IdleSleep)
		}
	}
}

// acceptLoop admits binary-protocol producers. Each connection binds
// to one (stream, task) ring for its lifetime; a second connection for
// a claimed ring is refused at handshake.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	h, err := ReadHeader(conn)
	if err != nil {
		return
	}
	q := s.Queue(h.Stream, h.Task)
	if q == nil || h.Cols != s.cfg.Workload.Streams[h.Stream].NumCols {
		return
	}
	if !q.TryAcquire() {
		return
	}
	defer q.ReleaseProducer()

	// A block this goroutine cannot publish is left to the garbage
	// collector, never pushed onto the free ring: that ring's producer
	// side is the engine's (BlockQueue.Release), and two pushers race.
	var scratch []byte
	for {
		b := q.Get()
		rows, err := ReadFrame(conn, b, h.Cols, &scratch)
		if err != nil {
			return
		}
		if rows == 0 {
			continue
		}
		for !q.Offer(b) {
			// Ring full: hold the block and let TCP flow control push
			// the backpressure to the producer.
			select {
			case <-s.stop:
				return
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
}

// ingestRequest is the HTTP ingest body: row-major tuples for one
// (stream, task) ring.
type ingestRequest struct {
	Stream int       `json:"stream"`
	Task   int       `json:"task"`
	Rows   [][]int64 `json:"rows"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req ingestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q := s.Queue(engine.StreamID(req.Stream), req.Task)
	if q == nil {
		http.Error(w, "unknown stream/task", http.StatusNotFound)
		return
	}
	if len(req.Rows) == 0 {
		w.WriteHeader(http.StatusAccepted)
		return
	}
	if len(req.Rows) > MaxFrameRows {
		http.Error(w, fmt.Sprintf("at most %d rows per request", MaxFrameRows), http.StatusRequestEntityTooLarge)
		return
	}
	cols := s.cfg.Workload.Streams[req.Stream].NumCols
	for _, row := range req.Rows {
		if len(row) != cols {
			http.Error(w, fmt.Sprintf("stream %d rows have %d columns", req.Stream, cols), http.StatusBadRequest)
			return
		}
	}
	if !q.TryAcquire() {
		http.Error(w, "ring has an active producer", http.StatusConflict)
		return
	}
	defer q.ReleaseProducer()
	b := q.Get()
	b.Resize(len(req.Rows), cols)
	for i, row := range req.Rows {
		for c := 0; c < cols; c++ {
			b.Col[c][i] = row[c]
		}
	}
	for i := 0; !q.Offer(b); i++ {
		if i >= 50 {
			s.cRefused.Inc() // b is dropped, not released: see serveConn
			http.Error(w, "ingest ring full", http.StatusServiceUnavailable)
			return
		}
		time.Sleep(time.Millisecond)
	}
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "%d rows\n", len(req.Rows))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

func (s *Server) handleReport(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Report())
}

// QueryReport is one query's serving-side tally.
type QueryReport struct {
	ID      string `json:"id"`
	Results int    `json:"results"`
}

// Report is the serving report: wall-clock uptime, how far the virtual
// clock got, ingest totals from the ring counters, per-query result
// counts, and how the engine's ticks ran (engine.TickStats: host
// dependent, hence here and not in core.Report or the registry).
type Report struct {
	UptimeSec    float64       `json:"uptime_sec"`
	VirtualTime  string        `json:"virtual_time"`
	IngestedRows int64         `json:"ingested_rows"`
	RowsPerSec   float64       `json:"rows_per_sec"`
	IngestBlocks float64       `json:"ingest_blocks"`
	RingFull     float64       `json:"ring_full_total"`
	Refused      float64       `json:"ingest_refused_total"`
	Recycled     float64       `json:"blocks_recycled"`
	Triggers     int           `json:"optimizer_triggers"`
	Applied      int           `json:"plans_applied"`
	Queries      []QueryReport `json:"queries"`

	// Ticks that ran on more than one worker; workers of the latest tick.
	ParallelTicks int64 `json:"parallel_ticks"`
	TickWorkers   int   `json:"tick_workers"`

	// The optimizer solves beside the loop (core.System.SolveState):
	// whether a solve is running now, how many results arrived after the
	// plan they were solved for was gone, and the wall-clock length of
	// the last finished solve.
	SolveInFlight bool    `json:"solve_in_flight"`
	StalePlans    int     `json:"stale_plans"`
	LastSolveMs   float64 `json:"last_solve_ms"`
}

// Report snapshots the serving state; safe while the server runs.
func (s *Server) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	eng := s.sys.Engine()
	up := time.Since(s.start).Seconds()
	rep := Report{
		UptimeSec:    up,
		VirtualTime:  eng.Clock().String(),
		IngestedRows: eng.GeneratedTuples(),
	}
	if up > 0 {
		rep.RowsPerSec = float64(rep.IngestedRows) / up
	}
	for _, qs := range s.queues {
		for _, q := range qs {
			if q.cBlocks == nil {
				continue
			}
			rep.IngestBlocks += q.cBlocks.Value()
			rep.RingFull += q.cFull.Value()
			rep.Recycled += q.cRecycled.Value()
		}
	}
	rep.Refused = s.cRefused.Value()
	snap := s.sys.Snapshot()
	rep.Triggers = snap.Triggers
	rep.Applied = snap.Applied
	ts := eng.TickStats()
	rep.ParallelTicks, rep.TickWorkers = ts.ParallelTicks, ts.Workers
	rep.SolveInFlight, rep.StalePlans, rep.LastSolveMs = s.sys.SolveState()
	for qi := 0; qi < eng.NumQueries(); qi++ {
		rep.Queries = append(rep.Queries, QueryReport{
			ID:      eng.QuerySpecOf(qi).ID,
			Results: eng.ResultCount(qi),
		})
	}
	return rep
}
