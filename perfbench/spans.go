package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Span layers: one per public entry point the driver calls into.
const (
	layerTraceGenerate uint8 = iota
	layerSampleW
	layerClusterNew
	layerClusterRun
	layerPlace
	layerClusterStart // cluster child launch up to its node URLs
	layerFrameDo
	layerHTTPReq
	layerHTTPExec
	layerHTTPMetrics
)

var layerNames = [...]string{
	layerTraceGenerate: "trace.Generate",
	layerSampleW:       "core.SampleW",
	layerClusterNew:    "cluster.New",
	layerClusterRun:    "cluster.Run",
	layerPlace:         "core.Place",
	layerClusterStart:  "httpcluster.Start",
	layerFrameDo:       "FrameClient.Do",
	layerHTTPReq:       "GET /req",
	layerHTTPExec:      "GET /exec",
	layerHTTPMetrics:   "GET /metrics",
}

// span is one call into a layer. Spans of one request share req (-1 for
// calls that serve no single request); parent is the enclosing span's
// index, -1 at the root.
type span struct {
	start, end int64 // ns since the log's origin
	req        int64
	parent     int32
	layer      uint8
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced code paths pass nil. Not safe for
// concurrent use: concurrent workers keep one log each and merge.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog(origin time.Time) *spanLog { return &spanLog{origin: origin} }

// add records a finished call and returns its index.
func (l *spanLog) add(layer uint8, req int64, parent int32, start, end time.Time) int32 {
	i := l.begin(layer, req, parent, start)
	l.finish(i, end)
	return i
}

// begin records the start of a call whose children are recorded before
// it ends, and returns its index for finish.
func (l *spanLog) begin(layer uint8, req int64, parent int32, start time.Time) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{start: int64(start.Sub(l.origin)), req: req, parent: parent, layer: layer})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) finish(i int32, end time.Time) {
	if l != nil {
		l.spans[i].end = int64(end.Sub(l.origin))
	}
}

// merge appends other's spans, re-basing their parent indices.
func (l *spanLog) merge(other *spanLog) {
	if l == nil || other == nil {
		return
	}
	base := int32(len(l.spans))
	for _, s := range other.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		l.spans = append(l.spans, s)
	}
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	return len(l.spans)
}

// write stores the spans as CSV under dir and returns the file's path.
func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	w.WriteString("span,parent,req,layer,start_ns,end_ns\n")
	var b []byte
	for i, s := range l.spans {
		b = strconv.AppendInt(b[:0], int64(i), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.req, 10)
		b = append(b, ',')
		b = append(b, layerNames[s.layer]...)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, '\n')
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
