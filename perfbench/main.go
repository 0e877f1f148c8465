// Command perfbench is the repository benchmark. It times three workloads
// through the module's public entry points, checks their outputs, and prints
// one JSON result line:
//
//   - spec-warm: Evaluator.Sweep over the SPEC-like catalog inputs and a
//     seeded ChampSim trace under triage, triangel and prophet;
//   - serve-tiers: an in-process prophetd answering from its memory, disk
//     and compute tiers;
//   - fleet-sweep: a coordinator Evaluator sweeping over two in-process
//     peers whose stores already hold the jobs.
//
// Each run is one process for one named workload, whose set-up alone gives
// setup_s and peak_rss_mb. The timed load gives it half of the step time
// and the other two workloads a quarter each, so every run reports every
// end-to-end metric (-trace 0). With -trace 1 the run
// measures the named workload alone, untraced and then traced, runs the
// other two traced, records spans around every call into a layer and
// reports the per-layer metrics. run.py builds it with the daemon's PGO
// profile and runs it:
//
//	python3 perfbench/run.py --workload spec-warm --seed 1 --seconds 24 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runInfo records a workload's sweep workers and client connections.
type runInfo struct {
	Workers int `json:"workers"`
	Conns   int `json:"conns"`
}

// env is what every workload shares: the seed, a scratch directory inside
// the checkout, the operation ledger, and figures printed for information
// only (sample counts, and tail percentiles, which on the reference host
// spread too widely between runs to gate on).
type env struct {
	seed uint64
	dir  string
	led  *ledger
	info map[string]float64
}

// ledger counts operations attempted and the ones whose output check failed.
type ledger struct {
	attempted, failed int64
	notes             []string
}

// op records one operation; ok is whether its output checked out.
func (l *ledger) op(ok bool, format string, args ...any) {
	l.attempted++
	if !ok {
		l.fail(1, format, args...)
	}
}

// fail marks n operations already counted as attempted as failed.
func (l *ledger) fail(n int64, format string, args ...any) {
	l.failed += n
	if len(l.notes) < 20 {
		l.notes = append(l.notes, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload. setup builds fresh state (replacing
// the previous set-up's) and reports the time that counts as set-up. A
// measurement pass is begin, then steps of timed load, each a small unit
// (a sweep cell, a round of requests, one fleet sweep), then end, which runs
// the pass's remaining checks and returns its end-to-end metrics. enough
// reports whether the pass holds the minimum work its estimators need.
// With a recorder, begin makes the pass record spans, and layers then
// derives the per-layer metrics from them and from the layer probes.
type workload interface {
	setup(ctx context.Context) (time.Duration, error)
	begin(ctx context.Context, rec *recorder) error
	step(ctx context.Context) error
	enough() bool
	end(ctx context.Context) (map[string]float64, error)
	layers(ctx context.Context, rec *recorder) (map[string]float64, error)
	// headline names the end-to-end metric tracing overhead is judged on.
	headline() string
	shape() runInfo
	close()
}

// interleave runs steps of the begun workloads, each time of the one
// furthest behind its share of the step time, until d has passed and every
// one has enough, then ends them all. Interleaving spreads every workload's
// samples over the whole pass, so slow swings of host speed, which on the
// reference host last seconds, weigh on each about equally.
func interleave(ctx context.Context, ws []workload, shares []float64, d time.Duration) (map[string]float64, error) {
	used := make([]time.Duration, len(ws))
	start := time.Now()
	for {
		over := time.Since(start) >= d
		next := -1
		for i, w := range ws {
			if over && w.enough() {
				continue
			}
			if next < 0 || used[i].Seconds()/shares[i] < used[next].Seconds()/shares[next] {
				next = i
			}
		}
		if next < 0 {
			break
		}
		t0 := time.Now()
		if err := ws[next].step(ctx); err != nil {
			return nil, err
		}
		used[next] += time.Since(t0)
	}
	out := map[string]float64{}
	for _, w := range ws {
		m, err := w.end(ctx)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] = v
		}
	}
	return out, nil
}

// pass measures one workload alone for about d.
func pass(ctx context.Context, w workload, d time.Duration, rec *recorder) (map[string]float64, error) {
	if err := w.begin(ctx, rec); err != nil {
		return nil, err
	}
	return interleave(ctx, []workload{w}, []float64{1}, d)
}

func newWorkload(name string, e *env) (workload, bool) {
	switch name {
	case "spec-warm":
		return &specWarm{env: e}, true
	case "serve-tiers":
		return &serveTiers{env: e}, true
	case "fleet-sweep":
		return &fleetSweep{env: e}, true
	}
	return nil, false
}

var workloadNames = []string{"spec-warm", "serve-tiers", "fleet-sweep"}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 24, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "checkout root; scratch files go under its .bench_build")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, root string) error {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, dir: dir, led: &ledger{}, info: map[string]float64{}}
	w, ok := newWorkload(name, e)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	defer w.close()
	ctx := context.Background()
	d := time.Duration(seconds) * time.Second

	var metrics map[string]float64
	if !traced {
		if metrics, err = untracedRun(ctx, e, name, w, d); err != nil {
			return err
		}
	} else {
		if metrics, err = tracedRun(ctx, e, name, w, d, base); err != nil {
			return err
		}
	}

	fmt.Printf("# %s seed=%d seconds=%d trace=%v nproc=%d gomaxprocs=%d\n",
		name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, n := range workloadNames {
		o, _ := newWorkload(n, e)
		fmt.Printf("# %s: workers=%d conns=%d\n", n, o.shape().Workers, o.shape().Conns)
	}
	infoKeys := make([]string, 0, len(e.info))
	for k := range e.info {
		infoKeys = append(infoKeys, k)
	}
	sort.Strings(infoKeys)
	for _, k := range infoKeys {
		fmt.Printf("# %s = %.4f\n", k, e.info[k])
	}
	for _, n := range e.led.notes {
		fmt.Println("# check failed:", n)
	}
	return printResult(e.led, metrics)
}

// untracedRun sets w up setupReps times, reads setup_s and peak_rss_mb,
// which are w's alone, then sets up the other two workloads and measures all
// three: w gets half of the step time and the others a quarter each, so
// every run reports every end-to-end metric.
//
// serve-tiers' computed requests, like every set-up, push new traces
// through the pipeline's process-wide FIFO of eight materialized traces,
// which would evict spec-warm's inputs and make its timed cells materialize
// them again. So spec-warm is set up after the others (again, untimed, when
// it is w), spec-warm and fleet-sweep steps interleave, and serve-tiers
// runs after them.
func untracedRun(ctx context.Context, e *env, name string, w workload, d time.Duration) (map[string]float64, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		// Each set-up starts from a collected heap, so the peak RSS is one
		// set-up's, not the garbage of the ones before it.
		debug.FreeOSMemory()
		took, err := w.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, took.Seconds())
	}
	rss := peakRSSMB()

	all := map[string]workload{name: w}
	share := map[string]float64{name: 0.5}
	for _, other := range []string{"serve-tiers", "fleet-sweep", "spec-warm"} {
		o := w
		if other != name {
			o, _ = newWorkload(other, e)
			defer o.close()
			all[other], share[other] = o, 0.25
		} else if other != "spec-warm" {
			continue
		}
		if _, err := o.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", other, err)
		}
	}
	for n, o := range all {
		if err := o.begin(ctx, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
	}
	first := []string{"spec-warm", "fleet-sweep"}
	ws := []workload{all[first[0]], all[first[1]]}
	shares := []float64{share[first[0]], share[first[1]]}
	span := time.Duration(float64(d) * (shares[0] + shares[1]))
	metrics, err := interleave(ctx, ws, shares, span)
	if err != nil {
		return nil, err
	}
	serve, err := interleave(ctx, []workload{all["serve-tiers"]}, []float64{1}, d-span)
	if err != nil {
		return nil, err
	}
	for k, v := range serve {
		metrics[k] = v
	}
	metrics["setup_s"] = median(setups)
	metrics["peak_rss_mb"] = rss
	return metrics, nil
}

// tracedRun measures w untraced and traced for half the time each, then runs
// every other workload once, traced, so one run reports every layer.
func tracedRun(ctx context.Context, e *env, name string, w workload, d time.Duration, base string) (map[string]float64, error) {
	if _, err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	untraced, err := pass(ctx, w, d/2, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rec := newRecorder()
	tracedE2E, err := pass(ctx, w, d/2, rec)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", name, err)
	}
	out, err := w.layers(ctx, rec)
	if err != nil {
		return nil, fmt.Errorf("%s layers: %w", name, err)
	}
	for _, other := range workloadNames {
		if other == name {
			continue
		}
		o, _ := newWorkload(other, e)
		lm, err := func() (map[string]float64, error) {
			defer o.close()
			if _, err := o.setup(ctx); err != nil {
				return nil, err
			}
			if _, err := pass(ctx, o, 0, rec); err != nil {
				return nil, err
			}
			return o.layers(ctx, rec)
		}()
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", other, err)
		}
		for k, v := range lm {
			out[k] = v
		}
	}

	overhead := map[string]float64{}
	for k, u := range untraced {
		t, ok := tracedE2E[k]
		if !ok || u == 0 {
			continue
		}
		pct := (t - u) / u * 100
		if higherBetter[k] {
			pct = -pct
		}
		overhead[k] = pct
	}
	out["trace.overhead_pct"] = overhead[w.headline()]

	spans := rec.snapshot()
	tf := traceFile{
		Workload: name, Seed: e.seed, Run: w.shape(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Untraced: untraced, Traced: tracedE2E, OverheadPct: overhead,
		SelfTime: selfByLayer(spans), Spans: spans,
	}
	tdir := filepath.Join(base, "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.json", name, e.seed))
	if err := tf.write(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("# trace: %d spans written to %s\n", len(spans), path)
	fmt.Printf("# %-28s %8s %12s %12s\n", "layer", "spans", "total ms", "self ms")
	for _, l := range tf.SelfTime {
		fmt.Printf("# %-28s %8d %12.2f %12.2f\n", l.Layer, l.Spans, l.TotalMs, l.SelfMs)
	}
	keys := make([]string, 0, len(overhead))
	for k := range overhead {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# tracing overhead %-26s untraced %12.4f traced %12.4f  %+.2f%%\n",
			k, untraced[k], tracedE2E[k], overhead[k])
	}
	return out, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(l *ledger, metrics map[string]float64) error {
	res := result{
		Correct:   l.failed == 0 && l.attempted > 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   make(map[string]metric, len(metrics)),
	}
	for k, v := range metrics {
		u, ok := units[k]
		if !ok {
			return fmt.Errorf("metric %q has no unit", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is %v", k, v)
		}
		res.Metrics[k] = metric{Value: v, Unit: u}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// peakRSSMB reads the process's peak resident set size from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// durs converts durations to float64 values in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// timeEach runs fn n times and returns the median duration of one call.
func timeEach(n int, fn func()) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	return time.Duration(median(durs(ds, 1)))
}

func discardLogf(string, ...any) {}
