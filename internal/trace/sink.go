package trace

import (
	"bufio"
	"fmt"
	"io"
	"slices"
)

// Sink receives every emitted event, in order. Implementations own
// their buffering; Close flushes. Write errors are sticky at the
// tracer: after the first failure the sink sees no further events.
type Sink interface {
	Write(e Event) error
	Close() error
}

// closerOf returns w's Close method when it has one, so file-backed
// sinks close their file without the caller tracking it separately.
func closerOf(w io.Writer) io.Closer {
	if c, ok := w.(io.Closer); ok {
		return c
	}
	return nil
}

// ---------------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------------

// JSONLSink writes one JSON object per line:
//
//	{"cycle":412,"node":1,"kind":"state","detail":"S>M","addr":"0x1000","arg":0}
//
// The format is grep- and jq-friendly and round-trips through any JSON
// parser line by line.
type JSONLSink struct {
	bw *bufio.Writer
	c  io.Closer
}

// NewJSONLSink wraps w. If w is an io.Closer (e.g. *os.File), Close
// closes it after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{bw: bufio.NewWriterSize(w, 1<<16), c: closerOf(w)}
}

// Write implements Sink.
func (s *JSONLSink) Write(e Event) error {
	_, err := fmt.Fprintf(s.bw,
		`{"cycle":%d,"node":%d,"kind":%q,"detail":%q,"addr":"%#x","arg":%d}`+"\n",
		e.Cycle, e.Node, e.Kind.String(), e.Detail(), e.Addr, e.Arg)
	return err
}

// Close flushes and closes the underlying writer.
func (s *JSONLSink) Close() error {
	err := s.bw.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// Chrome trace_event (chrome://tracing, Perfetto)
// ---------------------------------------------------------------------------

// ChromeSink writes the Chrome trace_event JSON object format: a
// {"traceEvents":[...]} document of instant events where pid is the
// node, tid is the event category lane (bus/coherence/validate/...),
// and ts is the simulated cycle (displayed as microseconds). Open the
// file in chrome://tracing or https://ui.perfetto.dev.
//
// Events stream as they are emitted; Close appends process/thread
// naming metadata and the closing brackets, so the document is valid
// JSON only after Close.
type ChromeSink struct {
	bw    *bufio.Writer
	c     io.Closer
	n     uint64
	nodes map[int32]bool
	cats  map[string]bool
	err   error
}

// NewChromeSink wraps w and writes the document preamble. If w is an
// io.Closer, Close closes it.
func NewChromeSink(w io.Writer) *ChromeSink {
	s := &ChromeSink{
		bw:    bufio.NewWriterSize(w, 1<<16),
		c:     closerOf(w),
		nodes: make(map[int32]bool),
		cats:  make(map[string]bool),
	}
	_, s.err = s.bw.WriteString(`{"traceEvents":[`)
	return s
}

// Write implements Sink.
func (s *ChromeSink) Write(e Event) error {
	if s.err != nil {
		return s.err
	}
	cat := e.Kind.Category()
	s.nodes[e.Node] = true
	s.cats[cat] = true
	name := e.Kind.String()
	if d := e.Detail(); d != "" {
		name += " " + d
	}
	sep := ","
	if s.n == 0 {
		sep = ""
	}
	s.n++
	_, s.err = fmt.Fprintf(s.bw,
		"%s\n"+`{"name":%q,"cat":%q,"ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{"addr":"%#x","arg":%d}}`,
		sep, name, cat, e.Cycle, e.Node, categoryTID(cat), e.Addr, e.Arg)
	return s.err
}

// Close writes naming metadata, by node and then by lane so the bytes
// are the same every run, and the document close, then flushes and
// closes the underlying writer.
func (s *ChromeSink) Close() error {
	nodes := make([]int32, 0, len(s.nodes))
	for node := range s.nodes {
		nodes = append(nodes, node)
	}
	slices.Sort(nodes)
	cats := make([]string, 0, len(s.cats))
	for cat := range s.cats {
		cats = append(cats, cat)
	}
	slices.SortFunc(cats, func(a, b string) int { return categoryTID(a) - categoryTID(b) })
	if s.err == nil {
		for _, node := range nodes {
			sep := ","
			if s.n == 0 {
				sep = ""
			}
			s.n++
			if _, s.err = fmt.Fprintf(s.bw,
				"%s\n"+`{"name":"process_name","ph":"M","pid":%d,"args":{"name":"node%d"}}`,
				sep, node, node); s.err != nil {
				break
			}
			for _, cat := range cats {
				s.n++
				if _, s.err = fmt.Fprintf(s.bw,
					",\n"+`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`,
					node, categoryTID(cat), cat); s.err != nil {
					break
				}
			}
		}
	}
	if s.err == nil {
		_, s.err = s.bw.WriteString("\n]}\n")
	}
	if ferr := s.bw.Flush(); s.err == nil {
		s.err = ferr
	}
	if s.c != nil {
		if cerr := s.c.Close(); s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}

// CountingSink discards events, counting them (benchmarks and tests).
type CountingSink struct{ N uint64 }

// Write implements Sink.
func (s *CountingSink) Write(Event) error { s.N++; return nil }

// Close implements Sink.
func (s *CountingSink) Close() error { return nil }
