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
	"time"

	"prophet"
	"prophet/internal/resultstore"
	"prophet/internal/server"
)

// The load runs in rounds: one computed request, then blocksPerRound
// blocks of every hot key once (memory) and diskPerBlock stored keys
// (disk), so each tier's samples spread over the whole run.
const (
	// serveCacheEntries bounds the daemon's memory tier. The disk requests
	// cycle through more stored keys than that in one fixed order, so each
	// key was last asked more keys ago than the tier holds: every disk
	// request misses memory. Between two touches of a hot key come at most
	// 11 hot, diskPerBlock disk and 1 computed keys, fewer than the tier
	// holds: every memory request hits.
	serveCacheEntries = 64
	serveDiskKeys     = 96
	diskPerBlock      = 40
	blocksPerRound    = 8
	// minRounds gives a short traced pass 24 computed samples and over a
	// thousand memory samples, ten beyond the p99.
	minRounds = 24
	// floorProbes is the sample count of the HTTP floor probe.
	floorProbes = 2000
)

// serveCombos is the (input, scheme) grid every tier draws keys from.
func serveCombos() [][2]string {
	var out [][2]string
	for _, in := range specInputs {
		for _, sch := range specSchemes {
			out = append(out, [2]string{in, string(sch)})
		}
	}
	return out
}

// serveTiers drives an in-process prophetd from one client connection in a
// closed loop, with requests that each hit one tier: computed (keys never
// seen), memory (hot keys repeated) and disk (keys the store holds but the
// memory tier does not).
type serveTiers struct {
	env    *env
	d      *daemon
	client *http.Client
	rng    *rand.Rand
	reps   int
	// diskJobs are stored during set-up through the engine's write-through,
	// so the memory tier never sees them before their disk requests.
	diskJobs  []server.EvaluateRequest
	diskOrder []int
	diskPos   int
	// hot are computed over HTTP during set-up, so the memory tier holds
	// them.
	hot []server.EvaluateRequest
	// nextRecords makes every computed request a new key.
	nextRecords uint64
	trace       int64
	roundErrs   int64

	// The current pass.
	rec                      *recorder
	rounds                   int
	perm                     []int
	compLat, memLat, diskLat []time.Duration
	memP50                   float64
	tierCounts               server.StatsResponse
	diskBodies               map[string][]byte
}

func (s *serveTiers) headline() string { return "mem_p50_us" }
func (s *serveTiers) shape() runInfo   { return runInfo{Workers: 1, Conns: 1} }

func (s *serveTiers) close() {
	closeClient(s.client)
	if s.d != nil {
		s.d.stopAll()
		s.d = nil
	}
}

func (s *serveTiers) setup(ctx context.Context) (time.Duration, error) {
	s.close()
	if s.rng == nil {
		s.rng = rand.New(rand.NewPCG(s.env.seed, 0x5e7e))
		// Request keys: stored keys at small, seeded record counts, and
		// computed keys at ~20k records from a seeded start.
		combos := serveCombos()
		for i := 0; i < serveDiskKeys; i++ {
			c := combos[i%len(combos)]
			recs := 2000 + uint64(i/len(combos))*100 + uint64(s.rng.IntN(100))
			s.diskJobs = append(s.diskJobs, server.EvaluateRequest{Workload: server.WorkloadRef{Name: c[0], Records: recs}, Scheme: c[1]})
		}
		s.nextRecords = 20000 + uint64(s.rng.IntN(1000))
		s.diskOrder = s.rng.Perm(serveDiskKeys)
		for i, c := range combos {
			s.hot = append(s.hot, server.EvaluateRequest{Workload: server.WorkloadRef{Name: c[0], Records: 1000 + uint64(i)}, Scheme: c[1]})
		}
	}
	s.reps++
	t0 := time.Now()
	dir := filepath.Join(s.env.dir, fmt.Sprintf("serve-%d", s.reps))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	d, err := startDaemon(daemonConfig{storePath: filepath.Join(dir, "prophetd.store"), cacheEntries: serveCacheEntries, span: "server.handler"})
	if err != nil {
		return 0, err
	}
	s.d = d
	s.client = oneConnClient()
	jobs := make([]prophet.Job, len(s.diskJobs))
	for i, r := range s.diskJobs {
		jobs[i] = prophet.Job{Workload: prophet.Workload{Name: r.Workload.Name, Records: r.Workload.Records}, Scheme: prophet.Scheme(r.Scheme)}
	}
	rows, err := d.ev.SweepLocal(ctx, jobs...)
	if err != nil {
		return 0, err
	}
	for _, r := range rows {
		if r.Err != nil {
			return 0, r.Err
		}
	}
	for _, req := range s.hot {
		if _, _, err := s.evaluate(d.url, req, nil, "computed"); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// evaluate POSTs one request and returns its latency and body.
func (s *serveTiers) evaluate(url string, req server.EvaluateRequest, rec *recorder, tier string) (time.Duration, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/evaluate", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	s.trace++
	id := rec.begin("client.evaluate", tier, 0, s.trace)
	if rec != nil {
		hreq.Header.Set(spanHeader, spanHeaderValue(id, s.trace))
	}
	t0 := time.Now()
	resp, err := s.client.Do(hreq)
	if err != nil {
		rec.end(id)
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(t0)
	rec.end(id)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return took, out, err
}

func (s *serveTiers) stats(url string) (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := s.client.Get(url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// send POSTs one request meant for tier and records its latency in lat.
func (s *serveTiers) send(req server.EvaluateRequest, tier string, lat *[]time.Duration) []byte {
	took, body, err := s.evaluate(s.d.url, req, s.rec, tier)
	s.env.led.op(err == nil, "serve-tiers %s request: %v", tier, err)
	if err != nil {
		s.roundErrs++
		return nil
	}
	*lat = append(*lat, took)
	return body
}

func (s *serveTiers) begin(ctx context.Context, rec *recorder) error {
	s.d.rec.Store(rec)
	s.rec = rec
	s.tierCounts = server.StatsResponse{}
	s.diskBodies = map[string][]byte{}
	s.compLat, s.memLat, s.diskLat = nil, nil, nil
	s.rounds = 0
	return nil
}

func (s *serveTiers) enough() bool { return s.rounds >= minRounds }

// step runs one round: a computed request, then blocksPerRound blocks of
// memory and disk requests, checked against the round's tier deltas.
func (s *serveTiers) step(ctx context.Context) error {
	before, err := s.stats(s.d.url)
	if err != nil {
		return err
	}
	s.roundErrs = 0
	// Computed: a new record count for every request, over the grid in a
	// seeded order.
	combos := serveCombos()
	if s.rounds%len(combos) == 0 {
		s.perm = s.rng.Perm(len(combos))
	}
	c := combos[s.perm[s.rounds%len(combos)]]
	s.rounds++
	s.nextRecords++
	s.send(server.EvaluateRequest{Workload: server.WorkloadRef{Name: c[0], Records: s.nextRecords}, Scheme: c[1]}, "computed", &s.compLat)
	for b := 0; b < blocksPerRound; b++ {
		// Memory: every hot key once, in a seeded order.
		for _, k := range s.rng.Perm(len(s.hot)) {
			s.send(s.hot[k], "memory", &s.memLat)
		}
		// Disk: the next stored keys of the fixed cycle.
		for i := 0; i < diskPerBlock; i++ {
			req := s.diskJobs[s.diskOrder[s.diskPos%len(s.diskOrder)]]
			s.diskPos++
			body := s.send(req, "disk", &s.diskLat)
			if k := prophet.StoreKey(evalJob(req)); body != nil && s.diskBodies[k] == nil {
				s.diskBodies[k] = body
			}
		}
	}
	after, err := s.stats(s.d.url)
	if err != nil {
		return err
	}
	s.checkTiers(before, after, 1, int64(blocksPerRound*len(s.hot)), blocksPerRound*diskPerBlock)
	return nil
}

func (s *serveTiers) end(ctx context.Context) (map[string]float64, error) {
	s.d.rec.Store(nil)
	if err := s.checkIdentity(); err != nil {
		return nil, err
	}
	memUs := durs(s.memLat, time.Microsecond)
	diskUs := durs(s.diskLat, time.Microsecond)
	s.memP50 = median(memUs)
	s.env.info["serve.samples.memory"] = float64(len(memUs))
	s.env.info["serve.samples.disk"] = float64(len(diskUs))
	s.env.info["serve.samples.computed"] = float64(len(s.compLat))
	s.env.info["serve.mem_p99_us"] = quantile(memUs, 0.99)
	s.env.info["serve.disk_p99_us"] = quantile(diskUs, 0.99)
	return map[string]float64{
		"mem_p50_us":     s.memP50,
		"disk_p50_us":    median(diskUs),
		"compute_p50_ms": median(durs(s.compLat, time.Millisecond)),
	}, nil
}

// checkTiers compares one round's /v1/stats tier deltas with the requests
// sent to each tier; every request another tier answered is a failure
// (requests that failed outright are already counted).
func (s *serveTiers) checkTiers(before, after server.StatsResponse, computed, memory, disk int64) {
	dc := after.Tiers.Computed - before.Tiers.Computed
	dm := after.Tiers.Memory - before.Tiers.Memory
	dd := after.Tiers.Disk - before.Tiers.Disk
	s.tierCounts.Tiers.Computed += dc
	s.tierCounts.Tiers.Memory += dm
	s.tierCounts.Tiers.Disk += dd
	var wrong int64
	for _, p := range [][2]int64{{computed, dc}, {memory, dm}, {disk, dd}} {
		if p[1] < p[0] {
			wrong += p[0] - p[1]
		}
	}
	if wrong -= s.roundErrs; wrong > 0 {
		s.env.led.fail(wrong, "serve-tiers round: sent computed %d memory %d disk %d, answered computed %d memory %d disk %d",
			computed, memory, disk, dc, dm, dd)
	}
}

func evalJob(r server.EvaluateRequest) prophet.Job {
	return prophet.Job{Workload: prophet.Workload{Name: r.Workload.Name, Records: r.Workload.Records}, Scheme: prophet.Scheme(r.Scheme)}
}

// checkIdentity asks for one stored key per scheme from a fresh memory tier
// over the same store (disk, then memory) and from a daemon with no store
// (compute); all three bodies, and the one the disk requests got, must be
// byte-identical.
func (s *serveTiers) checkIdentity() error {
	sib, err := s.d.startSibling()
	if err != nil {
		return err
	}
	defer sib.stop()
	fresh, err := startDaemon(daemonConfig{span: "server.handler"})
	if err != nil {
		return err
	}
	defer fresh.stopAll()
	for k := 0; k < len(specSchemes); k++ {
		req := s.diskJobs[k]
		fromDisk, e1 := s.tierBody(sib.url, req, "disk")
		fromMem, e2 := s.tierBody(sib.url, req, "memory")
		fromCompute, e3 := s.tierBody(fresh.url, req, "computed")
		seen := s.diskBodies[prophet.StoreKey(evalJob(req))]
		ok := e1 == nil && e2 == nil && e3 == nil &&
			bytes.Equal(fromDisk, fromMem) && bytes.Equal(fromDisk, fromCompute) && bytes.Equal(fromDisk, seen)
		s.env.led.op(ok, "serve-tiers: %s/%s bodies differ across tiers (errors %v %v %v)", req.Workload.Name, req.Scheme, e1, e2, e3)
	}
	return nil
}

// tierBody requests req from url and confirms from /v1/stats that tier
// answered it.
func (s *serveTiers) tierBody(url string, req server.EvaluateRequest, tier string) ([]byte, error) {
	before, err := s.stats(url)
	if err != nil {
		return nil, err
	}
	_, body, err := s.evaluate(url, req, nil, tier)
	if err != nil {
		return nil, err
	}
	after, err := s.stats(url)
	if err != nil {
		return nil, err
	}
	got := map[string]int64{
		"memory":   after.Tiers.Memory - before.Tiers.Memory,
		"disk":     after.Tiers.Disk - before.Tiers.Disk,
		"computed": after.Tiers.Computed - before.Tiers.Computed,
	}
	if got[tier] != 1 {
		return nil, fmt.Errorf("want one %s answer, tier deltas %v", tier, got)
	}
	return body, nil
}

func (s *serveTiers) layers(ctx context.Context, rec *recorder) (map[string]float64, error) {
	m := map[string]float64{
		"tiers.memory":   float64(s.tierCounts.Tiers.Memory),
		"tiers.disk":     float64(s.tierCounts.Tiers.Disk),
		"tiers.computed": float64(s.tierCounts.Tiers.Computed),
	}
	st, err := s.stats(s.d.url)
	if err != nil {
		return nil, err
	}
	if st.Store == nil {
		return nil, fmt.Errorf("daemon reports no store")
	}
	m["store.corrupt_skipped"] = float64(st.Store.CorruptSkipped)

	// HTTP floor: the cheapest routed request over the same connection.
	var floor []time.Duration
	for i := 0; i < floorProbes; i++ {
		t0 := time.Now()
		resp, err := s.client.Get(s.d.url + "/v1/version")
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		floor = append(floor, time.Since(t0))
	}
	httpFloor := median(durs(floor, time.Microsecond))
	m["server.http_floor_us"] = httpFloor
	m["server.mem.overhead_us"] = s.memP50 - httpFloor

	// Keying, the stored-result codec, response encoding and the store,
	// each called directly over the stored keys.
	jobs := make([]prophet.Job, len(s.diskJobs))
	keys := make([]string, len(jobs))
	vals := make([][]byte, len(jobs))
	for i, r := range s.diskJobs {
		jobs[i] = evalJob(r)
		keys[i] = prophet.StoreKey(jobs[i])
		v, ok := s.d.store.Get(keys[i])
		if !ok {
			return nil, fmt.Errorf("stored key %s missing", keys[i])
		}
		vals[i] = v
	}
	const batch = 2000
	m["prophet.store_key_ns"] = perCall(batch, func(i int) { prophet.StoreKey(jobs[i%len(jobs)]) })
	reports := make([]prophet.Report, len(vals))
	for i, v := range vals {
		if reports[i], err = prophet.DecodeStoredResult(v); err != nil {
			return nil, err
		}
	}
	m["prophet.decode_result_us"] = perCall(batch, func(i int) { prophet.DecodeStoredResult(vals[i%len(vals)]) }) / 1e3
	var buf bytes.Buffer
	m["server.encode_us"] = perCall(batch, func(i int) {
		r, rep := s.diskJobs[i%len(s.diskJobs)], reports[i%len(reports)]
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.Encode(server.EvaluateResponse{Workload: r.Workload, Scheme: r.Scheme, Stats: rep.Stats, Meta: rep.Meta})
	}) / 1e3
	m["resultstore.get_us"] = perCall(batch, func(i int) { s.d.store.Get(keys[i%len(keys)]) }) / 1e3

	// Put: fresh keys into a scratch store.
	dir, err := os.MkdirTemp(s.env.dir, "store-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	putKeys := make([]string, batch/4)
	for i := range putKeys {
		putKeys[i] = fmt.Sprintf("%s#%d", keys[i%len(keys)], i)
	}
	var puts []float64
	for r := 0; r < probeRepeats; r++ {
		ps, err := resultstore.Open(filepath.Join(dir, fmt.Sprintf("put-%d.store", r)), resultstore.Options{Fingerprint: s.d.ev.StoreFingerprint()})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for i, k := range putKeys {
			if err := ps.Put(k, vals[i%len(vals)]); err != nil {
				ps.Close()
				return nil, err
			}
		}
		puts = append(puts, float64(time.Since(t0))/float64(len(putKeys)))
		ps.Close()
	}
	m["resultstore.put_us"] = median(puts) / 1e3

	// Open: the daemon's log, copied so its live store is left alone.
	if err := s.d.store.Sync(); err != nil {
		return nil, err
	}
	logBytes, err := os.ReadFile(s.d.storePath)
	if err != nil {
		return nil, err
	}
	openPath := filepath.Join(dir, "open.store")
	if err := os.WriteFile(openPath, logBytes, 0o644); err != nil {
		return nil, err
	}
	var openErr error
	m["resultstore.open_ms"] = ms(timeEach(probeRepeats, func() {
		reopened, err := resultstore.Open(openPath, resultstore.Options{Fingerprint: s.d.ev.StoreFingerprint()})
		if err != nil {
			openErr = err
			return
		}
		if reopened.Len() != st.Store.Entries {
			openErr = fmt.Errorf("reopened store holds %d entries, daemon reports %d", reopened.Len(), st.Store.Entries)
		}
		reopened.Close()
	}))
	return m, openErr
}

// perCall times n calls of fn (fn(i) for i in [0,n)) probeRepeats times and
// returns the median ns per call.
func perCall(n int, fn func(i int)) float64 {
	return nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
}
