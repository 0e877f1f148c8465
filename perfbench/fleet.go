package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"prophet"
)

// fleetInputs are the catalog inputs of the fleet sweep: with the three
// temporal schemes, 24 jobs.
var fleetInputs = []string{"astar_biglakes", "astar_rivers", "gcc_166", "mcf", "omnetpp", "soplex_pds-50", "sphinx3", "xalancbmk"}

// fleetPeers is the fleet size: one connection per peer, nproc on the
// reference host, with one batch in flight at a time (fleetTransport).
const fleetPeers = 2

// minSweeps gives the fleet p99 at least ten samples beyond it.
const minSweeps = 1000

// fleetSweep runs repeated sweeps through a coordinator Evaluator with the
// default hash scheduler over two in-process peers whose stores already hold
// every job, so dispatch, the /v1/batch codec and the HTTP hops do the work.
type fleetSweep struct {
	env   *env
	rng   *rand.Rand
	jobs  []prophet.Job
	ref   map[string][]byte // StoreKey -> encoded peer-free row
	peers []*daemon
	coord *prophet.Evaluator
	tr    *fleetTransport
	reps  int
	trace int64

	// The current pass.
	rec    *recorder
	before prophet.DispatchStats
	lat    []time.Duration
	sweeps int
	counts prophet.DispatchStats
}

func (s *fleetSweep) headline() string { return "fleet_p50_ms" }
func (s *fleetSweep) shape() runInfo   { return runInfo{Workers: 1, Conns: fleetPeers} }

func (s *fleetSweep) close() {
	if s.tr != nil {
		s.tr.base.CloseIdleConnections()
	}
	for _, p := range s.peers {
		p.stopAll()
	}
	s.peers = nil
}

func (s *fleetSweep) setup(ctx context.Context) (time.Duration, error) {
	s.close()
	if s.rng == nil {
		s.rng = rand.New(rand.NewPCG(s.env.seed, 0xf1ee7))
		for _, in := range fleetInputs {
			w := prophet.Workload{Name: in, Records: 10000 + uint64(s.rng.IntN(4000))}
			for _, sch := range specSchemes {
				s.jobs = append(s.jobs, prophet.Job{Workload: w, Scheme: sch})
			}
		}
	}
	s.reps++
	t0 := time.Now()
	dir := filepath.Join(s.env.dir, fmt.Sprintf("fleet-%d", s.reps))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}

	// The peer-free reference, which also fills both peers' stores.
	refEv := prophet.New(prophet.WithWorkers(1), prophet.WithLogf(discardLogf))
	rows, err := refEv.SweepLocal(ctx, s.jobs...)
	if err != nil {
		return 0, err
	}
	s.ref = map[string][]byte{}
	vals := make([][]byte, len(rows))
	for i, r := range rows {
		if r.Err != nil {
			return 0, r.Err
		}
		if s.ref[prophet.StoreKey(r.Job)], err = encodeRow(r); err != nil {
			return 0, err
		}
		if vals[i], err = prophet.EncodeStoredResult(prophet.Report{Stats: r.Stats, Meta: r.Meta}); err != nil {
			return 0, err
		}
	}
	var urls []string
	for k := 0; k < fleetPeers; k++ {
		d, err := startDaemon(daemonConfig{storePath: filepath.Join(dir, fmt.Sprintf("peer%d.store", k)), span: "peer.batch"})
		if err != nil {
			return 0, err
		}
		s.peers = append(s.peers, d)
		for i, r := range rows {
			if err := d.store.Put(prophet.StoreKey(r.Job), vals[i]); err != nil {
				return 0, err
			}
		}
		urls = append(urls, d.url)
	}
	s.tr = &fleetTransport{base: oneConnTransport()}
	s.coord = prophet.New(prophet.WithBackends(urls...), prophet.WithBackendClient(&http.Client{Transport: s.tr}), prophet.WithLogf(discardLogf))
	// One sweep opens the connections before anything is timed.
	if _, err := s.sweepOnce(ctx, nil); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// encodeRow is the byte form rows are compared in.
func encodeRow(r prophet.Result) ([]byte, error) {
	errText := ""
	if r.Err != nil {
		errText = r.Err.Error()
	}
	return json.Marshal(struct {
		Stats prophet.RunStats
		Meta  map[string]int
		Err   string
	}{r.Stats, r.Meta, errText})
}

// sweepOnce runs one sweep of the jobs in a fresh seeded order and checks
// the merged rows against the peer-free reference.
func (s *fleetSweep) sweepOnce(ctx context.Context, rec *recorder) (time.Duration, error) {
	order := s.rng.Perm(len(s.jobs))
	jobs := make([]prophet.Job, len(order))
	for i, k := range order {
		jobs[i] = s.jobs[k]
	}
	s.trace++
	id := rec.begin("fleet.sweep", "", 0, s.trace)
	s.tr.set(rec, id, s.trace)
	t0 := time.Now()
	rows, err := s.coord.Sweep(ctx, jobs...)
	took := time.Since(t0)
	rec.end(id)
	if err != nil {
		return 0, err
	}
	ok := len(rows) == len(jobs)
	for i := 0; ok && i < len(rows); i++ {
		b, err := encodeRow(rows[i])
		ok = err == nil && rows[i].Job == jobs[i] && bytes.Equal(b, s.ref[prophet.StoreKey(jobs[i])])
	}
	s.env.led.op(ok, "fleet-sweep: merged rows differ from the peer-free SweepLocal")
	return took, nil
}

func (s *fleetSweep) begin(ctx context.Context, rec *recorder) error {
	for _, p := range s.peers {
		p.rec.Store(rec)
	}
	s.rec = rec
	s.before = s.coord.DispatchStats()
	s.lat = s.lat[:0]
	return nil
}

func (s *fleetSweep) step(ctx context.Context) error {
	took, err := s.sweepOnce(ctx, s.rec)
	if err != nil {
		return err
	}
	s.lat = append(s.lat, took)
	return nil
}

func (s *fleetSweep) enough() bool { return len(s.lat) >= minSweeps }

func (s *fleetSweep) end(ctx context.Context) (map[string]float64, error) {
	for _, p := range s.peers {
		p.rec.Store(nil)
	}
	after := s.coord.DispatchStats()
	s.sweeps = len(s.lat)
	s.counts = prophet.DispatchStats{
		Remote:    after.Remote - s.before.Remote,
		Local:     after.Local - s.before.Local,
		Retries:   after.Retries - s.before.Retries,
		Failovers: after.Failovers - s.before.Failovers,
		Stolen:    after.Stolen - s.before.Stolen,
	}
	c := s.counts
	s.env.led.op(c.Local == 0 && c.Retries == 0 && c.Failovers == 0,
		"fleet-sweep: dispatch ran %d jobs locally, %d retries, %d failovers", c.Local, c.Retries, c.Failovers)
	msLat := durs(s.lat, time.Millisecond)
	s.env.info["fleet.samples.sweeps"] = float64(len(msLat))
	s.env.info["fleet.p99_ms"] = quantile(msLat, 0.99)
	return map[string]float64{"fleet_p50_ms": median(msLat)}, nil
}

func (s *fleetSweep) layers(ctx context.Context, rec *recorder) (map[string]float64, error) {
	n := float64(s.sweeps)
	m := map[string]float64{
		"dispatch.remote":    float64(s.counts.Remote) / n,
		"dispatch.local":     float64(s.counts.Local) / n,
		"dispatch.retries":   float64(s.counts.Retries) / n,
		"dispatch.failovers": float64(s.counts.Failovers) / n,
		"dispatch.stolen":    float64(s.counts.Stolen) / n,
	}

	// The coordinator's own time: each sweep span minus the batch round
	// trips (request out to reply decoded) it waited on.
	spans := rec.snapshot()
	self := selfTimes(spans)
	var over []float64
	for _, sp := range spans {
		if sp.Name == "fleet.sweep" && sp.End > 0 {
			over = append(over, ms(self[sp.ID]))
		}
	}
	m["dispatch.overhead_ms"] = median(over)

	// One peer answering the whole sweep: over HTTP, and in process.
	batch := prophet.BatchRequest{Jobs: make([]prophet.BatchJob, len(s.jobs))}
	for i, j := range s.jobs {
		batch.Jobs[i] = prophet.BatchJob{Workload: j.Workload.Name, Records: j.Workload.Records, Scheme: string(j.Scheme)}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		return nil, err
	}
	client := oneConnClient()
	defer closeClient(client)
	var rtErr error
	m["dispatch.batch_rtt_ms"] = ms(timeEach(200, func() {
		resp, err := client.Post(s.peers[0].url+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			rtErr = err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			rtErr = fmt.Errorf("POST /v1/batch: HTTP %d", resp.StatusCode)
		}
	}))
	if rtErr != nil {
		return nil, rtErr
	}
	m["peer.sweep_local_ms"] = ms(timeEach(200, func() {
		if _, err := s.peers[0].ev.SweepLocal(ctx, s.jobs...); err != nil {
			rtErr = err
		}
	}))
	return m, rtErr
}

// fleetTransport lets one batch round trip be in flight at a time, from
// sending the request until the coordinator closes the decoded reply: on a
// 2-CPU host, whether two peers' batches overlap depends on how the host
// schedules its CPUs, and that made sweep times swing by a fifth between
// runs. With a recorder set, it records a dispatch.batch span around each
// round trip and passes the span on to the peer's handler.
type fleetTransport struct {
	base     *http.Transport
	inFlight sync.Mutex

	mu     sync.Mutex
	rec    *recorder
	parent int
	trace  int64
}

func (t *fleetTransport) set(rec *recorder, parent int, trace int64) {
	t.mu.Lock()
	t.rec, t.parent, t.trace = rec, parent, trace
	t.mu.Unlock()
}

func (t *fleetTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.mu.Lock()
	rec, parent, trace := t.rec, t.parent, t.trace
	t.mu.Unlock()
	t.inFlight.Lock()
	id := rec.begin("dispatch.batch", r.URL.Host, parent, trace)
	if rec != nil {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, spanHeaderValue(id, trace))
	}
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		rec.end(id)
		t.inFlight.Unlock()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() {
		rec.end(id)
		t.inFlight.Unlock()
	}}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}
