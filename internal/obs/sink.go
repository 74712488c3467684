package obs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Sink receives drained NDJSON batches from the log's drainer. Write is
// called from the single drainer goroutine with a buffer the drainer
// reuses: implementations must not retain it past the call.
type Sink interface {
	// Write persists one encoded batch (complete lines, trailing newline).
	Write(batch []byte)
	// Close flushes and releases the sink.
	Close() error
}

// fileSinkMaxBytes is a FileSink segment's rotation bound.
const fileSinkMaxBytes = 64 << 20

// FileSink writes NDJSON batches to <prefix>-NNNNNN.ndjson files in a
// directory, rotating to a new file once the current one passes 64 MiB.
// Rotation keeps individual files tail-able and lets operators ship or
// prune closed segments; records are never split across files.
type FileSink struct {
	dir      string
	prefix   string
	maxBytes int64

	mu      sync.Mutex
	f       *os.File
	written int64
	index   int
	err     error // first write error; sticky, reported by Close
}

// NewFileSink opens a rotating <prefix>-NNNNNN.ndjson sink in dir,
// creating it if needed — the decision log and the trace stream share one
// directory without colliding segment names.
func NewFileSink(dir, prefix string) (*FileSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: file sink: %w", err)
	}
	s := &FileSink{dir: dir, prefix: prefix, maxBytes: fileSinkMaxBytes}
	if err := s.rotateLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// rotateLocked closes the current file (if any) and opens the next
// numbered one. Caller holds s.mu (or is the constructor).
func (s *FileSink) rotateLocked() error {
	if s.f != nil {
		if err := s.f.Close(); err != nil && s.err == nil {
			s.err = err
		}
		s.f = nil
	}
	for {
		name := filepath.Join(s.dir, fmt.Sprintf("%s-%06d.ndjson", s.prefix, s.index))
		s.index++
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue // resuming into a dir with earlier segments
		}
		if err != nil {
			return fmt.Errorf("obs: file sink: %w", err)
		}
		s.f, s.written = f, 0
		return nil
	}
}

// Write appends one batch, rotating first if the current file is full.
// Errors are sticky and surfaced by Close — the drainer never blocks a
// decider on disk trouble.
func (s *FileSink) Write(batch []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return
	}
	if s.written > 0 && s.written+int64(len(batch)) > s.maxBytes {
		if err := s.rotateLocked(); err != nil {
			if s.err == nil {
				s.err = err
			}
			return
		}
	}
	n, err := s.f.Write(batch)
	s.written += int64(n)
	if err != nil && s.err == nil {
		s.err = err
	}
}

// Close closes the current file and reports the first error the sink hit.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if err := s.f.Close(); err != nil && s.err == nil {
			s.err = err
		}
		s.f = nil
	}
	return s.err
}

// WriterSink adapts any io.Writer (a test buffer, a pipe to a shipper)
// into a Sink.
type WriterSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewWriterSink wraps w as a Sink.
//
//checkdoc:testonly test hook: tests of the obs pipeline and its emitters read the log back from a buffer
func NewWriterSink(w io.Writer) *WriterSink { return &WriterSink{w: w} }

// Write forwards one batch to the wrapped writer.
func (s *WriterSink) Write(batch []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.Write(batch)
}

// Close is a no-op; the wrapped writer's lifecycle belongs to the caller.
func (s *WriterSink) Close() error { return nil }
