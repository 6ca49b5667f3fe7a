package core

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// localTransport short-circuits HTTP requests addressed to the study's own
// loopback services: instead of writing the request onto a TCP socket and
// parsing it back out of the other side, it invokes the service's wrapped
// handler (telemetry middleware and fault injector included) directly, on
// the caller's goroutine, and adapts the recorded response. The wire path
// costs ~15 heap objects per request across both net/http state machines —
// request serialization, textproto header parsing, connection-pool
// bookkeeping — which at study scale (tens of thousands of fetches per run)
// dominates the whole pipeline's allocation profile. The in-process path
// costs a function call: the exchange, its header map and its response
// struct are all pooled.
//
// Behavior matches the wire for everything the Fetcher observes: status
// codes, headers (Retry-After), bodies, default-200 semantics, and the
// fault injector's abort modes — a handler panic (http.ErrAbortHandler)
// before any write surfaces as a connection error from Do, after a partial
// write as an io.ErrUnexpectedEOF mid-body, exactly the two shapes a
// severed TCP connection produces. A request context that ends while the
// handler runs fails the round trip with the context's error, as a wire
// client gives up at its deadline.
//
// Handler contract: because the handler runs on the caller's goroutine, a
// handler that blocks must return once req.Context() ends. The injector's
// stall mode, the only blocking handler, selects on the request context,
// so a stall longer than the caller's deadline ends at the deadline.
//
// The returned Response and its Header belong to the pooled exchange and
// stay valid until Body.Close.
//
// Hosts without a registered handler fall through to the real transport,
// so the loopback listeners stay reachable for anything else.
type localTransport struct {
	handlers map[string]http.Handler // keyed by URL host ("127.0.0.1:port")
}

// errConnAborted is what a handler abort before any response bytes looks
// like from the client side of a real connection.
var errConnAborted = errors.New("core: in-process connection aborted")

// inprocExchange is one request's pooled state. The same struct serves as
// the handler-side http.ResponseWriter and, once the handler returns, as
// the client-side response Body over the recorded bytes; Close resets it
// and returns it to the pool.
type inprocExchange struct {
	resp  http.Response
	hdr   http.Header
	buf   []byte
	code  int
	wrote bool // WriteHeader reached (explicitly or via first Write)

	off      int
	abortErr error // non-nil: yielded after the recorded bytes run out
	closed   bool
}

var exchangePool = sync.Pool{New: func() any {
	return &inprocExchange{
		hdr:  make(http.Header, 4),
		buf:  make([]byte, 0, 32<<10),
		code: http.StatusOK,
	}
}}

func (x *inprocExchange) Header() http.Header { return x.hdr }

func (x *inprocExchange) WriteHeader(code int) {
	if !x.wrote {
		x.code = code
		x.wrote = true
	}
}

func (x *inprocExchange) Write(b []byte) (int, error) {
	x.wrote = true
	x.buf = append(x.buf, b...)
	return len(b), nil
}

// WriteString appends a string body without the []byte conversion
// io.WriteString would otherwise make.
func (x *inprocExchange) WriteString(s string) (int, error) {
	x.wrote = true
	x.buf = append(x.buf, s...)
	return len(s), nil
}

func (x *inprocExchange) Read(p []byte) (int, error) {
	if x.off >= len(x.buf) {
		if x.abortErr != nil {
			return 0, x.abortErr
		}
		return 0, io.EOF
	}
	n := copy(p, x.buf[x.off:])
	x.off += n
	return n, nil
}

func (x *inprocExchange) Close() error {
	if x.closed {
		return nil
	}
	x.closed = true
	x.resp = http.Response{}
	clear(x.hdr)
	x.buf = x.buf[:0]
	x.code = http.StatusOK
	x.wrote = false
	x.off = 0
	x.abortErr = nil
	exchangePool.Put(x)
	return nil
}

// serve runs h on the calling goroutine and reports whether it panicked.
// Any panic counts as an abort, as net/http's server treats it.
func (x *inprocExchange) serve(h http.Handler, req *http.Request) (aborted bool) {
	defer func() {
		if recover() != nil {
			aborted = true
		}
	}()
	h.ServeHTTP(x, req)
	return false
}

func (t *localTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.handlers[req.URL.Host]
	if !ok {
		return http.DefaultTransport.RoundTrip(req)
	}
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	x := exchangePool.Get().(*inprocExchange)
	x.closed = false
	aborted := x.serve(h, req)
	if err := ctx.Err(); err != nil {
		// The deadline passed while the handler ran (a stall unblocked by
		// the request context): the wire client has already given up.
		_ = x.Close()
		return nil, err
	}
	if aborted && !x.wrote {
		// Abort before any response bytes (the injector's reset mode):
		// the wire client's Do fails with a connection error.
		_ = x.Close()
		return nil, errConnAborted
	}
	cl := int64(len(x.buf))
	if v := x.hdr.Get("Content-Length"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			cl = n
		}
	}
	if aborted && int64(len(x.buf)) < cl {
		// Abort mid-body with the full Content-Length advertised (stall and
		// truncate modes): the wire client reads a short body ending in an
		// unexpected EOF.
		x.abortErr = io.ErrUnexpectedEOF
	}
	x.resp = http.Response{
		StatusCode:    x.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        x.hdr,
		Body:          x,
		ContentLength: cl,
		Request:       req,
	}
	return &x.resp, nil
}
