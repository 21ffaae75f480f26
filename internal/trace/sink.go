package trace

import (
	"bufio"
	"io"
)

// Sink receives every emitted event, in order. Implementations own
// their buffering; Close flushes. Write errors are sticky at the
// tracer: after the first failure the sink sees no further events.
type Sink interface {
	Write(e Event) error
	Close() error
}

// JSONLSink writes each event as one line of its JSON encoding
// (Event.AppendJSON). The file is grep- and jq-friendly, and each
// whole line parses on its own, so a run killed mid-trace still leaves
// a readable prefix.
type JSONLSink struct {
	bw *bufio.Writer
	c  io.Closer
}

// NewJSONLSink wraps w. If w is an io.Closer (e.g. *os.File), Close
// closes it after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	c, _ := w.(io.Closer)
	return &JSONLSink{bw: bufio.NewWriterSize(w, 1<<16), c: c}
}

// Write implements Sink.
func (s *JSONLSink) Write(e Event) error {
	_, err := s.bw.Write(append(e.AppendJSON(s.bw.AvailableBuffer()), '\n'))
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
