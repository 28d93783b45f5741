package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layer is one traced boundary of a request, named after the module
// the benchmark calls into there.
type layer uint8

const (
	// layerServe is a request's root span: request decoding,
	// admission, response encoding and the flight record happen in it
	// outside any child span, so its self time is the reorder package's
	// residual.
	layerServe layer = iota
	layerParse
	layerParameterize
	layerLower
	// layerKey covers plan.Key and plan.Fingerprint of the template and
	// plan.Key of the bound plan.
	layerKey
	// layerCache is plancache.Cache.Do; on a miss its optimizer span is
	// a child, so its self time is the cache's own work.
	layerCache
	layerOptimize
	layerBind
	layerExec
	layerFeedback
	numLayers
)

var layerNames = [numLayers]string{
	"serve", "sql.parse", "sql.parameterize", "sql.lower", "plan.key",
	"plancache", "optimizer", "plan.bind", "executor", "feedback",
}

// span is one traced interval. Times are nanoseconds since the
// tracer's epoch; req is the request's sequence position (warm-up
// requests are negative); parent indexes the enclosing span (-1 for a
// request root).
type span struct {
	start, end int64
	req        int32
	parent     int32
	layer      layer
}

// tracer keeps spans in memory; they are written out after the run.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(l layer, req, parent int32) int32 {
	t.spans = append(t.spans, span{start: int64(time.Since(t.epoch)), req: req, parent: parent, layer: l})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].end = int64(time.Since(t.epoch)) }

func (t *tracer) dur(id int32) int64 { return t.spans[id].end - t.spans[id].start }

// selfTimes returns each span's duration minus the part its children
// cover. One goroutine records a request, so a span's children are
// sequential, disjoint and inside it: the covered part is the sum of
// their durations.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	return self
}

// write dumps the spans as tab-separated text, one span a line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\treq\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.req, s.parent, layerNames[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
