package dist

import (
	"bytes"
	"context"
	"io"
	"net/http"
)

// LoopbackClient wraps an http.Handler (typically a Coordinator) in an
// http.Client whose requests never touch a socket: each round trip calls
// the handler directly in process. It makes the whole coordinator/worker
// protocol — leases, expiries, re-leases, submits — testable hermetically,
// with no listeners, ports or network flakiness.
func LoopbackClient(h http.Handler) *http.Client {
	return &http.Client{Transport: loopbackTransport{h: h}}
}

type loopbackTransport struct {
	h http.Handler
}

func (t loopbackTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &loopbackRecorder{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	return &http.Response{
		Status:        http.StatusText(rec.code),
		StatusCode:    rec.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(&rec.body),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

// loopbackRecorder is the minimal in-memory http.ResponseWriter the
// loopback transport hands to the handler.
type loopbackRecorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
	wrote  bool
}

func (r *loopbackRecorder) Header() http.Header { return r.header }

func (r *loopbackRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

func (r *loopbackRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.body.Write(p)
}

// WaitJob blocks until the named job is complete or the context ends.
func (c *Coordinator) WaitJob(ctx context.Context, id string) error {
	j, err := c.jobByID(id)
	if err != nil {
		return err
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Workers returns how many distinct workers have asked for leases — a
// worker that only ever polled counts too.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}
