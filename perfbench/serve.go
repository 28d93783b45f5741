package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"syscall"
	"time"

	reorder "repro"
	"repro/internal/obs"
)

// requestBodies renders each pool entry as a POST /query JSON body.
func requestBodies(pool []string) ([][]byte, error) {
	bodies := make([][]byte, len(pool))
	for i, sql := range pool {
		b, err := json.Marshal(reorder.Request{SQL: sql})
		if err != nil {
			return nil, fmt.Errorf("encode request %d: %w", i, err)
		}
		bodies[i] = b
	}
	return bodies, nil
}

// post serves one in-memory POST /query through h: no socket, the
// same mux, decoding and encoding a network client would hit.
func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           &url.URL{Path: "/query"},
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Host:          "perfbench",
		RequestURI:    "/query",
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// setupResult is a ready service plus the set-up timings.
type setupResult struct {
	cfg   reorder.ServiceConfig
	svc   *reorder.Service
	times []time.Duration
	// baseHeap is the live heap just before the kept set-up ran:
	// heap_live_mb is measured against it.
	baseHeap uint64
}

// Set-up repetitions: at least setupMinReps, and more (up to
// setupMaxReps) until setupMinTotal has been spent, so the median of a
// millisecond-scale set-up still rests on many samples.
const (
	setupMinReps  = 5
	setupMaxReps  = 100
	setupMinTotal = time.Second
)

// setup builds the database and service and serves the warm-up
// requests, repeatedly; the last repetition's service is kept.
func setup(w *workload, spillDir string, seq sequence, bodies [][]byte) (*setupResult, error) {
	res := &setupResult{}
	var total time.Duration
	for rep := 0; rep < setupMaxReps; rep++ {
		res.cfg, res.svc = reorder.ServiceConfig{}, nil // let the previous repetition's state go
		runtime.GC()
		base := heapAlloc()
		start := time.Now()
		cfg := w.config(spillDir)
		svc, err := reorder.NewService(cfg)
		if err != nil {
			return nil, fmt.Errorf("new service: %w", err)
		}
		h := svc.Handler()
		for _, id := range seq.warm {
			if rec := post(h, bodies[id]); rec.Code != http.StatusOK {
				return nil, fmt.Errorf("warm-up request %q: HTTP %d: %s", seq.pool[id], rec.Code, rec.Body.String())
			}
		}
		d := time.Since(start)
		res.times = append(res.times, d)
		res.cfg, res.svc, res.baseHeap = cfg, svc, base
		total += d
		if rep+1 >= setupMinReps && total >= setupMinTotal {
			break
		}
	}
	return res, nil
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// served is the untraced timed phase's measurements.
type served struct {
	lat        []time.Duration // handler latency by sequence position
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	heapLive   uint64
	failedAt   []int // positions answered with a non-200 status
	firstError string
	// rep maps each sequence position to the position of the first
	// response with byte-identical columns and rows (itself if none
	// came before; -1 if the request failed), and variants lists those
	// first responses per pool entry. Only the first responses are
	// kept and parsed; every other response is checked through them.
	rep      []int32
	variants [][]variant
	// digests holds the row digest of each kept response, by position.
	digests map[int]uint64
	// firstReplan is the 1-based position of the first response
	// marked replanned (0: none).
	firstReplan int
	// counters is the service registry's counter delta over the phase.
	counters map[string]int64
}

// variant is one distinct response head seen for a pool entry.
type variant struct {
	hash uint64
	pos  int32
}

var (
	replannedMark = []byte(`"replanned":true`)
	cacheField    = []byte(`,"cache":`)
)

// headHash is FNV-1a over a response body up to its "cache" field:
// the columns and rows, without the per-request timings.
func headHash(body []byte) uint64 {
	if j := bytes.Index(body, cacheField); j >= 0 {
		body = body[:j]
	}
	h := uint64(14695981039346656037)
	for _, c := range body {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// newServed allocates the timed phase's harness buffers. It runs
// before set-up, so heap_live_mb counts only what the service retains.
func newServed(seq sequence) *served {
	n := len(seq.timed)
	return &served{
		lat:      make([]time.Duration, n),
		rep:      make([]int32, n),
		variants: make([][]variant, len(seq.pool)),
		digests:  make(map[int]uint64),
	}
}

// serveTimed replays the timed sequence through the service's HTTP
// handler with a single closed-loop client: each request is sent when
// the previous one has returned.
func serveTimed(w *workload, st *setupResult, seq sequence, bodies [][]byte, out *served) error {
	kept := make(map[int][]byte)
	h := st.svc.Handler()
	before := st.svc.Observer().Registry.Snapshot()

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuTime()
	if err != nil {
		return err
	}
	start := time.Now()
	for i, id := range seq.timed {
		t0 := time.Now()
		rec := post(h, bodies[id])
		out.lat[i] = time.Since(t0)
		if rec.Code != http.StatusOK {
			if len(out.failedAt) == 0 {
				out.firstError = fmt.Sprintf("%q: HTTP %d: %s", seq.pool[id], rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			}
			out.failedAt = append(out.failedAt, i)
			out.rep[i] = -1
			continue
		}
		body := rec.Body.Bytes()
		out.rep[i] = out.match(id, int32(i), headHash(body))
		if out.rep[i] == int32(i) {
			kept[i] = body
		}
		if w.feedback && out.firstReplan == 0 && bytes.Contains(body, replannedMark) {
			out.firstReplan = i + 1
		}
	}
	out.wall = time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return err
	}
	out.cpu = cpu1 - cpu0
	runtime.ReadMemStats(&ms1)
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.gcCycles = ms1.NumGC - ms0.NumGC
	out.counters = counterDelta(before, st.svc.Observer().Registry.Snapshot())

	for i, body := range kept {
		d, err := digestBody(body)
		if err != nil {
			return fmt.Errorf("response %d (%q): %w", i, seq.pool[seq.timed[i]], err)
		}
		out.digests[i] = d
	}
	runtime.GC()
	runtime.GC()
	if live := heapAlloc(); live > st.baseHeap {
		out.heapLive = live - st.baseHeap
	}
	return nil
}

// match returns the position of pool entry id's first response with
// head hash h, recording pos as that response if there is none.
func (s *served) match(id, pos int32, h uint64) int32 {
	for _, v := range s.variants[id] {
		if v.hash == h {
			return v.pos
		}
	}
	s.variants[id] = append(s.variants[id], variant{hash: h, pos: pos})
	return pos
}

func counterDelta(before, after obs.Snapshot) map[string]int64 {
	d := make(map[string]int64, len(after.Counters))
	for name, v := range after.Counters {
		d[name] = v - before.Counters[name]
	}
	return d
}
