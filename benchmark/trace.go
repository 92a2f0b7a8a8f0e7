package main

// trace.go is the traced run's instrumentation. Every span is recorded
// from outside the program, at a seam the program already exposes: a
// File wrapper on the result store (sweep.OpenStoreHooked), a SaveFile
// wrapper on the topology store (NetStore.SetSaveHook), a timing
// RoundTripper on each worker's HTTP client, middleware around the
// coordinator's handler, in-memory run-log writers, and the per-job
// Outcome.Stages handed to Progress/OnOutcome. Spans stay in memory and
// are written once, at exit, in Chrome trace-event format.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// offSlot marks a span that does not occupy a job slot: coordinator
// handlers, its fsyncs, a worker's heartbeats and reports, set-up work.
const offSlot = -1

// span is one timed interval. Start and End are offsets from the start
// of the round.
type span struct {
	ID, Parent int
	Name       string
	Slot       int
	Start, End time.Duration
	Key        string // content key of the job the span belongs to
	Worker     string
	Shard      int // -1: none
	Bytes      int64
	// Derived marks stage sub-spans laid end to end from
	// Outcome.Stages: the program records stage durations, not start
	// times.
	Derived bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// depth orders nesting on a slot: each instant goes to the deepest span
// open at it.
var depth = map[string]int{
	"sweepd.shard":       1,
	"sweepd.claim":       2,
	"sweepd.complete":    2,
	"sweep.job":          2,
	"sweep.cache_lookup": 3,
	"core.run":           3,
	"sweep.aggregate":    3,
	"hgraph.generate":    4,
	"graphio.load":       4,
	"graphio.save":       4,
	"sweep.store.append": 4,
}

// endpoints are the lease-protocol endpoints the per-layer metrics
// cover. Heartbeats are traced like the others but not reported: at a
// 15 s lease a worker heartbeats every 5 s, and no shard here runs that
// long, so their metrics would read 0 on every workload.
var endpoints = []string{"claim", "report", "complete"}

// onSlotEndpoint reports whether a worker's call to ep blocks its job
// slot: claim and complete run on the worker loop between shards, while
// heartbeats and reports run beside the jobs on their own goroutines.
func onSlotEndpoint(ep string) bool { return ep == "claim" || ep == "complete" }

type logEvent struct {
	at     time.Time
	slot   int // the slot of a worker's log; -1 for the scheduler's and coordinator's
	event  string
	fields map[string]any
}

// tracer collects one round's spans and events.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	events   []logEvent
	outcomes map[string]sweep.StageTimes // by content key
	spans    []span                      // measured at a seam
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, outcomes: map[string]sweep.StageTimes{}}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) measured(name string, slot int, start, end time.Time) span {
	return span{Name: name, Slot: slot, Start: start.Sub(t.t0), End: end.Sub(t.t0), Shard: -1}
}

// outcome records one job's stage durations (Progress / OnOutcome).
func (t *tracer) outcome(o sweep.Outcome) {
	if o.FromStore || o.Dropped {
		return
	}
	t.mu.Lock()
	t.outcomes[o.Job.Key()] = o.Stages
	t.mu.Unlock()
}

// logWriter is an in-memory run-log sink. slot is the job slot of a
// sweepd worker's log; -1 for logs whose lines name their own slot (the
// local scheduler's "worker" field) or carry none (the coordinator).
func (t *tracer) logWriter(slot int) io.Writer { return logSink{t, slot} }

type logSink struct {
	t    *tracer
	slot int
}

func (l logSink) Write(p []byte) (int, error) {
	at := time.Now()
	var ev obs.RunEvent
	if err := json.Unmarshal(p, &ev); err != nil {
		return 0, err
	}
	l.t.mu.Lock()
	l.t.events = append(l.t.events, logEvent{at: at, slot: l.slot, event: ev.Event, fields: ev.Fields})
	l.t.mu.Unlock()
	return len(p), nil
}

// storeHook wraps the result store's backing file: every append and
// fsync becomes a span.
func (t *tracer) storeHook(f sweep.File) sweep.File { return &timedFile{File: f, t: t} }

type timedFile struct {
	sweep.File
	t *tracer
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	s := f.t.measured("sweep.store.append", offSlot, start, time.Now())
	s.Bytes = int64(n)
	s.Key = recordKey(p)
	f.t.add(s)
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.add(f.t.measured("sweep.store.fsync", offSlot, start, time.Now()))
	return err
}

// recordKey extracts the content key a store line starts with.
func recordKey(line []byte) string {
	const prefix = `{"key":"`
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return ""
	}
	rest := line[len(prefix):]
	if i := bytes.IndexByte(rest, '"'); i > 0 {
		return string(rest[:i])
	}
	return ""
}

// saveHook wraps each topology-store save's temp file; the span runs
// from the file's creation to its Close.
func (t *tracer) saveHook(f graphio.SaveFile) graphio.SaveFile {
	return &timedSave{SaveFile: f, t: t, start: time.Now()}
}

type timedSave struct {
	graphio.SaveFile
	t     *tracer
	start time.Time
	n     int64
}

func (s *timedSave) Write(p []byte) (int, error) {
	n, err := s.SaveFile.Write(p)
	s.n += int64(n)
	return n, err
}

func (s *timedSave) Close() error {
	err := s.SaveFile.Close()
	sp := s.t.measured("graphio.save", offSlot, s.start, time.Now())
	sp.Bytes = s.n
	s.t.add(sp)
	return err
}

// transport times a worker's coordinator calls, from the request until
// the response body is closed.
func (t *tracer) transport(slot int, worker string) http.RoundTripper {
	return &timedTransport{base: http.DefaultTransport, t: t, slot: slot, worker: worker}
}

type timedTransport struct {
	base   http.RoundTripper
	t      *tracer
	slot   int
	worker string
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	ep := strings.TrimPrefix(req.URL.Path, "/")
	slot := offSlot
	if onSlotEndpoint(ep) {
		slot = tt.slot
	}
	s := tt.t.measured("sweepd."+ep, slot, start, start)
	s.Worker = tt.worker
	s.Bytes = req.ContentLength
	if req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			s.Shard = requestShard(body)
			body.Close()
		}
	}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		s.End = time.Since(tt.t.t0)
		tt.t.add(s)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = time.Since(b.t.t0)
		b.t.add(b.s)
	})
	return err
}

// requestShard reads the shard number a lease-scoped request carries
// near its start ({"worker":…,"shard":N,…}); -1 when absent.
func requestShard(r io.Reader) int {
	head := make([]byte, 128)
	n, _ := io.ReadFull(r, head)
	head = head[:n]
	i := bytes.Index(head, []byte(`"shard":`))
	if i < 0 {
		return -1
	}
	digits := head[i+len(`"shard":`):]
	end := 0
	for end < len(digits) && digits[end] >= '0' && digits[end] <= '9' {
		end++
	}
	v, err := strconv.Atoi(string(digits[:end]))
	if err != nil {
		return -1
	}
	return v
}

// middleware times the coordinator's handling of each request.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(t.measured("sweepd.server."+strings.TrimPrefix(r.URL.Path, "/"), offSlot, start, time.Now()))
	})
}

// pregenSpan records one set-up generation (topology store pre-fill).
func (t *tracer) pregenSpan(start, end time.Time) {
	t.add(t.measured("hgraph.generate", offSlot, start, end))
}

// build assembles the round's full span list: job and shard spans from
// the run-log events, derived stage sub-spans from the outcomes, and the
// measured seam spans, attributed to slots and given parents.
func (t *tracer) build() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	at := func(x time.Time) time.Duration { return x.Sub(t.t0) }
	num := func(v any) int {
		f, ok := v.(float64)
		if !ok {
			return -1
		}
		return int(f)
	}
	str := func(v any) string { s, _ := v.(string); return s }

	jobsOpen := map[string]time.Time{}
	shardsOpen := map[int]logEvent{}
	jobIdx := map[string]int{} // content key -> index in out of its job span
	for _, ev := range t.events {
		switch ev.event {
		case "job_start", "job_done":
			slot := ev.slot
			worker := fmt.Sprintf("w%d", slot)
			if slot < 0 {
				slot = num(ev.fields["worker"])
				worker = ""
			}
			key := str(ev.fields["key"])
			id := fmt.Sprintf("%d/%s", slot, key)
			if ev.event == "job_start" {
				jobsOpen[id] = ev.at
				continue
			}
			start, ok := jobsOpen[id]
			if !ok {
				continue
			}
			delete(jobsOpen, id)
			jobIdx[key] = len(out)
			out = append(out, span{Name: "sweep.job", Slot: slot, Start: at(start), End: at(ev.at),
				Key: key, Worker: worker, Shard: -1})
		case "shard_claim":
			shardsOpen[num(ev.fields["shard"])] = ev
		case "shard_complete":
			shard := num(ev.fields["shard"])
			claim, ok := shardsOpen[shard]
			if !ok {
				continue
			}
			delete(shardsOpen, shard)
			worker := str(claim.fields["worker"])
			out = append(out, span{Name: "sweepd.shard", Slot: workerSlot(worker),
				Start: at(claim.at), End: at(ev.at), Worker: worker, Shard: shard})
		}
	}

	// Stage sub-spans, laid end to end from the job span's start.
	jobs := len(out)
	for i := 0; i < jobs; i++ {
		job := out[i]
		if job.Name != "sweep.job" {
			continue
		}
		st, ok := t.outcomes[job.Key]
		if !ok {
			continue
		}
		mk := func(name string, start, d time.Duration) {
			if d <= 0 {
				return
			}
			out = append(out, span{Name: name, Slot: job.Slot, Start: start, End: start + d,
				Key: job.Key, Worker: job.Worker, Shard: -1, Derived: true})
		}
		s := job.Start
		mk("sweep.cache_lookup", s, st.CacheLookup)
		mk("hgraph.generate", s, st.Generate)
		mk("graphio.load", s, st.DiskLoad)
		mk("core.run", s+st.CacheLookup, st.Run)
		mk("sweep.aggregate", s+st.CacheLookup+st.Run, st.Aggregate)
	}

	for _, s := range t.spans {
		switch {
		case s.Name == "sweep.store.append" && s.Key != "":
			// A local scheduler appends from the job's own slot; a
			// coordinator's appends stay off-slot.
			if i, ok := jobIdx[s.Key]; ok && out[i].Worker == "" {
				s.Slot = out[i].Slot
			}
		case s.Name == "graphio.save":
			if i := saveOwner(out[:jobs], t.outcomes, s); i >= 0 {
				s.Slot, s.Key, s.Worker = out[i].Slot, out[i].Key, out[i].Worker
			}
		case s.Name == "sweepd.claim":
			for _, sh := range out {
				if sh.Name == "sweepd.shard" && sh.Worker == s.Worker && sh.Start >= s.Start && sh.Start <= s.End {
					s.Shard = sh.Shard
				}
			}
		}
		out = append(out, s)
	}

	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	for i := range out {
		out[i].ID = i + 1
	}
	assignParents(out)
	return out
}

// workerSlot maps a fleet worker name ("w0", "w1") to its job slot.
func workerSlot(name string) int {
	v, err := strconv.Atoi(strings.TrimPrefix(name, "w"))
	if err != nil || !strings.HasPrefix(name, "w") {
		return offSlot
	}
	return v
}

// saveOwner finds the job whose topology a save belongs to: the save
// follows the generation inside the same cache lookup, so the owner is
// the job whose derived lookup span contains the save and whose derived
// generation ended last before it began. -1 if none fits.
func saveOwner(jobs []span, outcomes map[string]sweep.StageTimes, s span) int {
	const slack = time.Millisecond
	best, bestEnd := -1, time.Duration(-1)
	for i, j := range jobs {
		if j.Name != "sweep.job" {
			continue
		}
		st := outcomes[j.Key]
		if st.Generate <= 0 {
			continue
		}
		genEnd := j.Start + st.Generate
		lookupEnd := j.Start + st.CacheLookup
		if genEnd <= s.Start+slack && s.End <= lookupEnd+slack && genEnd > bestEnd {
			best, bestEnd = i, genEnd
		}
	}
	return best
}

// assignParents gives each on-slot span the innermost shallower span on
// its slot that contains it, and each worker's off-slot call the shard
// span it ran under.
func assignParents(spans []span) {
	for i := range spans {
		s := &spans[i]
		best := -1
		for j := range spans {
			p := spans[j]
			if j == i || p.Start > s.Start || p.End < s.End {
				continue
			}
			switch {
			case s.Slot != offSlot && p.Slot == s.Slot && depth[p.Name] < depth[s.Name]:
			case s.Slot == offSlot && s.Worker != "" && p.Name == "sweepd.shard" && p.Worker == s.Worker:
			default:
				continue
			}
			if best < 0 || depth[p.Name] > depth[spans[best].Name] {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
		}
	}
}

// slotTable attributes every instant of each job slot in [from, to) to
// the deepest span open on that slot, or to idle. A job span's own time
// — covered by no stage — is "unattributed". Each slot's row sums to
// to − from.
func slotTable(spans []span, slots int, from, to time.Duration) []map[string]time.Duration {
	table := make([]map[string]time.Duration, slots)
	for slot := range table {
		row := map[string]time.Duration{}
		type edge struct {
			t    time.Duration
			open bool
			i    int
		}
		var edges []edge
		for i, s := range spans {
			if s.Slot != slot {
				continue
			}
			start, end := max(s.Start, from), min(s.End, to)
			if end <= start {
				continue
			}
			edges = append(edges, edge{start, true, i}, edge{end, false, i})
		}
		sort.SliceStable(edges, func(a, b int) bool { return edges[a].t < edges[b].t })
		var active []int
		prev := from
		for _, e := range edges {
			if e.t > prev {
				row[innermost(spans, active)] += e.t - prev
				prev = e.t
			}
			if e.open {
				active = append(active, e.i)
				continue
			}
			for k, i := range active {
				if i == e.i {
					active = append(active[:k], active[k+1:]...)
					break
				}
			}
		}
		row[innermost(spans, active)] += to - prev
		table[slot] = row
	}
	return table
}

// innermost names the row the deepest active span charges: ties go to
// the span that opened last.
func innermost(spans []span, active []int) string {
	if len(active) == 0 {
		return "idle"
	}
	best := active[0]
	for _, i := range active[1:] {
		if depth[spans[i].Name] >= depth[spans[best].Name] {
			best = i
		}
	}
	if spans[best].Name == "sweep.job" {
		return "unattributed"
	}
	return spans[best].Name
}

// offSlotTotals sums off-slot work inside [from, to) by span name.
func offSlotTotals(spans []span, from, to time.Duration) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Slot != offSlot {
			continue
		}
		start, end := max(s.Start, from), min(s.End, to)
		if end > start {
			out[s.Name] += end - start
		}
	}
	return out
}

// writeSlotTable prints the per-slot table and the off-slot list.
func writeSlotTable(w io.Writer, table []map[string]time.Duration, off map[string]time.Duration, wall time.Duration) {
	names := map[string]bool{}
	for _, row := range table {
		for name := range row {
			names[name] = true
		}
	}
	order := make([]string, 0, len(names))
	for name := range names {
		order = append(order, name)
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := depth[order[a]], depth[order[b]]
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	fmt.Fprintf(w, "slot table (s): each instant of each slot goes to its innermost open span\n")
	fmt.Fprintf(w, "  %-22s", "span")
	for slot := range table {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("slot %d", slot))
	}
	fmt.Fprintf(w, " %10s\n", "total")
	var sum time.Duration
	for _, name := range order {
		fmt.Fprintf(w, "  %-22s", name)
		var total time.Duration
		for _, row := range table {
			fmt.Fprintf(w, " %10.4f", row[name].Seconds())
			total += row[name]
		}
		sum += total
		fmt.Fprintf(w, " %10.4f\n", total.Seconds())
	}
	fmt.Fprintf(w, "  %-22s %*s %10.4f  (%d x wall_s = %.4f)\n", "sum", 11*len(table), "",
		sum.Seconds(), len(table), float64(len(table))*wall.Seconds())
	offNames := make([]string, 0, len(off))
	for name := range off {
		offNames = append(offNames, name)
	}
	sort.Strings(offNames)
	fmt.Fprintf(w, "off-slot work (s, not summed above):\n")
	for _, name := range offNames {
		fmt.Fprintf(w, "  %-22s %10.4f\n", name, off[name].Seconds())
	}
}

// writeChromeTrace writes spans as Chrome trace events (Perfetto and
// chrome://tracing open them): one thread per job slot, one for the
// coordinator and set-up work, one per worker for its background calls.
func writeChromeTrace(path string, spans []span, slots int) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts,omitempty"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	const coordTID = 100
	tid := func(s span) int {
		switch {
		case s.Slot != offSlot:
			return s.Slot
		case s.Worker != "":
			return 200 + workerSlot(s.Worker)
		}
		return coordTID
	}
	var events []event
	name := func(t int, label string) {
		events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: t, Args: map[string]any{"name": label}})
	}
	for slot := 0; slot < slots; slot++ {
		name(slot, fmt.Sprintf("slot %d", slot))
	}
	name(coordTID, "coordinator / store / set-up")
	seen := map[int]bool{}
	for _, s := range spans {
		t := tid(s)
		if t >= 200 && !seen[t] {
			seen[t] = true
			name(t, s.Worker+" background")
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "slot": s.Slot}
		if s.Key != "" {
			args["key"] = s.Key
		}
		if s.Worker != "" {
			args["worker"] = s.Worker
		}
		if s.Shard >= 0 {
			args["shard"] = s.Shard
		}
		if s.Bytes > 0 {
			args["bytes"] = s.Bytes
		}
		if s.Derived {
			args["derived"] = true
		}
		events = append(events, event{Name: s.Name, Ph: "X", PID: 1, TID: t,
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
