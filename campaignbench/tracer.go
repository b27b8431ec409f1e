package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"svard/internal/obs"
)

// tracer records the benchmark's own spans around each call into the
// program, and folds in the per-cell traces the program emits itself.
// Its methods are nil-safe: an untraced pass carries a nil tracer.
type tracer struct {
	mu     sync.Mutex
	anchor time.Time
	spans  []span
	units  []cellUnit        // program cells: a cell event and its phase events
	cells  []obs.CellSummary // the same cells, summarized
}

type span struct {
	name, cat  string
	start, end time.Time
	args       map[string]any
}

// cellUnit is one program cell rebased onto the tracer's anchor.
type cellUnit struct {
	start, end float64 // µs from anchor
	events     []obs.Event
}

func newTracer() *tracer { return &tracer{anchor: time.Now()} }

// span records a finished span that started at start and ends now.
func (t *tracer) span(name, cat string, start time.Time, args map[string]any) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name, cat, start, end, args})
	t.mu.Unlock()
}

// foldTrace folds in a campaign engine's per-cell trace.
func (t *tracer) foldTrace(tr *obs.Trace) error {
	if t == nil || tr == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		return err
	}
	return t.foldJSON(buf.Bytes(), tr.Start())
}

// foldJSON folds in a per-cell trace in Chrome trace_event JSON whose
// timestamps count from anchor.
func (t *tracer) foldJSON(raw []byte, anchor time.Time) error {
	if t == nil {
		return nil
	}
	f, err := obs.Read(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	shift := float64(anchor.Sub(t.anchor)) / float64(time.Microsecond)
	var units []cellUnit
	for _, e := range f.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		e.Ts += shift
		switch {
		case e.Cat == "cell":
			units = append(units, cellUnit{start: e.Ts, end: e.Ts + e.Dur, events: []obs.Event{e}})
		case e.Cat == "phase" && len(units) > 0:
			u := &units[len(units)-1]
			u.events = append(u.events, e)
		}
	}
	summaries := f.CellSummaries()
	t.mu.Lock()
	t.units = append(t.units, units...)
	t.cells = append(t.cells, summaries...)
	t.mu.Unlock()
	return nil
}

// programCells returns the summaries of every folded program cell.
func (t *tracer) programCells() []obs.CellSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]obs.CellSummary(nil), t.cells...)
}

// benchLaneBase separates the benchmark's span lanes from the program's
// cell lanes: svard-trace -check nests spans per lane id.
const benchLaneBase = 10000

// write writes every span and program cell as one Chrome trace. Program
// cells are packed onto lanes so no two overlap; benchmark spans are
// packed so that every span on a lane either nests in or follows the
// ones before it.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := obs.File{DisplayTimeUnit: "ms"}
	meta := func(pid, tid int, name, label string) {
		f.TraceEvents = append(f.TraceEvents, obs.Event{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": label}})
	}
	meta(1, 0, "process_name", "svard program cells")
	meta(2, benchLaneBase, "process_name", "campaignbench calls")

	units := append([]cellUnit(nil), t.units...)
	sort.SliceStable(units, func(a, b int) bool { return units[a].start < units[b].start })
	var laneEnd []float64
	for _, u := range units {
		lane := -1
		for i, end := range laneEnd {
			if u.start >= end {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = u.end
		for _, e := range u.events {
			e.Pid, e.Tid = 1, lane
			f.TraceEvents = append(f.TraceEvents, e)
		}
	}

	us := func(x time.Time) float64 { return float64(x.Sub(t.anchor)) / float64(time.Microsecond) }
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(a, b int) bool {
		if !spans[a].start.Equal(spans[b].start) {
			return spans[a].start.Before(spans[b].start)
		}
		return spans[a].end.After(spans[b].end)
	})
	var stacks [][]float64 // per lane: ends of the open spans
	for _, s := range spans {
		start, end := us(s.start), us(s.end)
		lane := -1
		for i := range stacks {
			st := stacks[i]
			for len(st) > 0 && st[len(st)-1] <= start {
				st = st[:len(st)-1]
			}
			stacks[i] = st
			if len(st) == 0 || end <= st[len(st)-1] {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(stacks)
			stacks = append(stacks, nil)
		}
		stacks[lane] = append(stacks[lane], end)
		f.TraceEvents = append(f.TraceEvents, obs.Event{
			Name: s.name, Cat: s.cat, Ph: "X", Pid: 2, Tid: benchLaneBase + lane,
			Ts: start, Dur: end - start, Args: s.args,
		})
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(out).Encode(f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// handler wraps an HTTP handler so every request is timed per route and,
// in a traced pass, recorded as a span named after its route.
type handler struct {
	next  http.Handler
	tr    *tracer
	label string
	// done, if set, is called after each request with its route.
	done func(route string, status int, start time.Time)

	mu   sync.Mutex
	durs map[string][]time.Duration // per route
}

func wrapHandler(next http.Handler, tr *tracer, label string, done func(string, int, time.Time)) *handler {
	return &handler{next: next, tr: tr, label: label, done: done, durs: map[string][]time.Duration{}}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush keeps the event stream's per-line flushes working through the
// wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r)
	route := routeOf(r)
	h.mu.Lock()
	h.durs[route] = append(h.durs[route], time.Since(start))
	h.mu.Unlock()
	h.tr.span(h.label+" "+route, "http", start, map[string]any{"status": sw.status})
	if h.done != nil {
		h.done(route, sw.status, start)
	}
}

// durations returns how long each request of one route took.
func (h *handler) durations(route string) []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]time.Duration(nil), h.durs[route]...)
}

// total returns how many requests were served, excluding the routes
// given.
func (h *handler) total(except ...string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for r, ds := range h.durs {
		skip := false
		for _, e := range except {
			skip = skip || r == e
		}
		if !skip {
			n += len(ds)
		}
	}
	return n
}

// routeOf names a request by method and path shape, with ids and keys
// collapsed.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	parts := bytes.Split([]byte(p), []byte("/"))
	// /api/v1/<resource>/<id>/<sub>
	if len(parts) >= 5 {
		out := "/" + string(parts[1]) + "/" + string(parts[2]) + "/" + string(parts[3]) + "/{id}"
		if len(parts) >= 6 {
			out += "/" + string(parts[5])
		}
		return r.Method + " " + out
	}
	return r.Method + " " + p
}
