package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Spans of one cell or request share a Trace ID; Parent is the
// ID of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced passes pay one nil check per
// boundary.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name, tag string, parent int, trace int64) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Tag: tag, Start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes maps each span ID to its duration minus the part of its interval
// covered by its children.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if c.End > 0 && hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return time.Duration(total + curHi - curLo)
}

// layerSelf is the per-layer self-time summary written with the spans.
type layerSelf struct {
	Layer   string  `json:"layer"`
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

// selfByLayer sums total and self time per span name, largest self first.
func selfByLayer(spans []span) []layerSelf {
	self := selfTimes(spans)
	agg := map[string]*layerSelf{}
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		a := agg[s.Name]
		if a == nil {
			a = &layerSelf{Layer: s.Name}
			agg[s.Name] = a
		}
		a.Spans++
		a.TotalMs += ms(s.dur())
		a.SelfMs += ms(self[s.ID])
	}
	out := make([]layerSelf, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// traceFile is what a traced run writes out at exit.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Run        runInfo            `json:"run"`
	Untraced   map[string]float64 `json:"untraced"`
	Traced     map[string]float64 `json:"traced"`
	// OverheadPct is, per end-to-end metric, how much worse the traced pass
	// read than the untraced one, in percent of the untraced value.
	OverheadPct map[string]float64 `json:"overheadPct"`
	SelfTime    []layerSelf        `json:"selfTime"`
	Spans       []span             `json:"spans"`
}

func (f traceFile) write(path string) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
