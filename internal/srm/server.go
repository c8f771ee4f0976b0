package srm

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/obs/span"
)

// The wire protocol is newline-delimited JSON over TCP: each request is one
// line holding one object, and each response is one line holding one
// object. Operations:
//
//	{"op":"addfile","name":"evt-energy","size":1048576}
//	{"op":"stage","files":["evt-energy","evt-momentum"]}   -> {"ok":true,"token":"t1","bytes_loaded":2097152}
//	{"op":"release","token":"t1"}
//	{"op":"stats"}
//
// Both ends write exactly what encoding/json's Encoder writes for Request
// and Response (codec.go), so any JSON tool can speak the protocol, and a
// hand-typed line may carry whitespace and its members in any order. A
// line is at most 1 MiB, its '\n' included; blank lines are skipped. The
// server closes the connection on a line it does not accept:
//
//   - a longer line, or one cut short by EOF;
//   - anything but exactly one object, or an object split across lines;
//   - a key that is not one of the Request fields' JSON names exactly
//     (encoding/json would fold "OP" onto "op"; this protocol does not),
//     or a key written with an escape;
//   - null, or a value of the wrong type: an integer with a fraction or
//     exponent, or one that overflows its field, is rejected.
//
// Tokens are per-connection; dropping the connection, for whatever reason,
// releases all bundles it still holds (lease semantics), so a crashed or
// misbehaving client cannot pin the cache forever.

// Request is one protocol request.
type Request struct {
	Op    string   `json:"op"`
	Name  string   `json:"name,omitempty"`
	Size  int64    `json:"size,omitempty"`
	Files []string `json:"files,omitempty"`
	Token string   `json:"token,omitempty"`

	// Req continues a request labeled upstream (zero: the server assigns a
	// fresh ID); Span is the sender's span ID, which becomes the parent of
	// the server's root span. Both are span-telemetry propagation and are
	// ignored by servers without a recorder. A span ID is only meaningful
	// to the recorder that assigned it, so the cross-process parent link is
	// a best-effort join key for offline analysis.
	Req  uint64 `json:"req,omitempty"`
	Span uint64 `json:"span,omitempty"`
}

// Response is one protocol response.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Retryable marks transient failures (cache saturated with pins): the
	// client should back off RetryAfterMs and resend the same request.
	Retryable    bool   `json:"retryable,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	Token        string `json:"token,omitempty"`

	Hit         bool        `json:"hit,omitempty"`
	BytesLoaded bundle.Size `json:"bytes_loaded,omitempty"`

	Stats *Snapshot `json:"stats,omitempty"`

	// Req echoes the server-assigned request ID so the client can adopt it
	// (span.Active.AdoptRequest) and offline analysis can join the client's
	// RPC span with the server's request tree. Zero when spans are off.
	Req uint64 `json:"req,omitempty"`
}

// Server exposes an SRM over TCP.
type Server struct {
	srm *SRM
	ln  net.Listener

	mu      sync.Mutex
	closed  bool              // guarded by mu
	conns   map[net.Conn]bool // guarded by mu
	closers []io.Closer       // guarded by mu; see CloseOnShutdown
	flushed bool              // guarded by mu
	wg      sync.WaitGroup    // one count per live connection handler; internally synchronized
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") and returns once the
// listener is bound; connections are handled in background goroutines.
func Serve(s *SRM, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("srm: listen: %w", err)
	}
	srv := &Server{srm: s, ln: ln, conns: make(map[net.Conn]bool)}
	go srv.acceptLoop()
	return srv, nil
}

// Addr reports the bound address.
func (srv *Server) Addr() string { return srv.ln.Addr().String() }

// CloseOnShutdown registers c to be closed when the server stops, after
// the drain in Shutdown. Use it for telemetry sinks whose buffers must flush
// before the process exits: the span flight recorder (span.Recorder.Close
// flushes its JSONL dump) and any standalone trace sinks. Closers run
// once, in registration order; a registration after shutdown closes c
// immediately.
func (srv *Server) CloseOnShutdown(c io.Closer) {
	srv.mu.Lock()
	late := srv.flushed
	if !late {
		srv.closers = append(srv.closers, c)
	}
	srv.mu.Unlock()
	if late {
		_ = c.Close() // server already stopped; flush now, nobody to report to
	}
}

// closeClosers runs the registered shutdown closers exactly once, outside
// srv.mu (a closer may flush through locks of its own). The first error
// wins.
func (srv *Server) closeClosers() error {
	srv.mu.Lock()
	var toClose []io.Closer
	if !srv.flushed {
		srv.flushed = true
		toClose = srv.closers
	}
	srv.mu.Unlock()
	var first error
	for _, c := range toClose {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shutdown stops the server: the listener closes first (no new
// connections), then in-flight connections get up to drain to finish their
// requests and disconnect on their own. When the deadline passes,
// stragglers are force-closed and the SRM is closed, so a stage still
// blocked on pinned capacity fails with ErrClosed instead of holding its
// handler forever. Dropping a connection releases its leases either way, so
// no bundle stays pinned past Shutdown. Shutdown(0) is the immediate stop;
// a second call is a no-op.
func (srv *Server) Shutdown(drain time.Duration) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.mu.Unlock()

	err := srv.ln.Close() // stop accepting; acceptLoop exits
	done := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drain):
	}

	srv.mu.Lock()
	srv.closed = true
	for c := range srv.conns {
		_ = c.Close() // drain deadline passed; cut the stragglers loose
	}
	srv.mu.Unlock()
	srv.srm.Close() // wake stagers blocked in admit; a closed conn does not
	srv.wg.Wait()   // handlers release their leases on the way out
	if ferr := srv.closeClosers(); err == nil {
		err = ferr
	}
	return err
}

func (srv *Server) acceptLoop() {
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			return
		}
		srv.mu.Lock()
		if srv.closed {
			srv.mu.Unlock()
			_ = conn.Close() // racing with Shutdown; nothing to report the error to
			return
		}
		srv.conns[conn] = true
		srv.wg.Add(1)
		srv.mu.Unlock()
		go srv.handle(conn)
	}
}

func (srv *Server) handle(conn net.Conn) {
	defer func() {
		srv.mu.Lock()
		delete(srv.conns, conn)
		srv.mu.Unlock()
		_ = conn.Close() // handler teardown; the protocol reply already went out
		srv.wg.Done()
	}()

	leases := make(map[string]Release)
	nextToken := 0
	defer func() {
		for _, rel := range leases {
			rel()
		}
	}()

	in := newWireReader(conn)
	// One Request is reused for every line, and req.Files aliases the
	// reader's backing array, which the next line overwrites. That is safe
	// only because dispatch hands Files to Catalog.Resolve, which maps the
	// names to FileIDs and keeps nothing; the strings themselves are fresh.
	var req Request
	var out []byte
	rec := srv.srm.Spans()
	for {
		// A malformed or oversized line ends the connection, as does EOF;
		// the deferred release drops its leases.
		if err := in.readRequest(&req); err != nil {
			return
		}
		// Every wire request gets a root span: the wire context (if the
		// client sent one) parents it; the response echoes the request ID
		// so the client can adopt it. All free when no recorder is set.
		root := rec.StartRequest(
			span.Context{Req: span.RequestID(req.Req), Parent: span.SpanID(req.Span)},
			serverOp(req.Op))
		resp, ec := srv.dispatch(&req, leases, &nextToken, &root)
		resp.Req = uint64(root.Req())
		root.Finish(ec)
		var err error
		if out, err = appendResponse(out[:0], &resp); err != nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// serverOp maps a wire op to its server-side span operation. Unknown ops
// trace as OpNone, which the recorder accepts but never exports.
func serverOp(op string) span.Op {
	switch op {
	case "stage":
		return span.OpStage
	case "release":
		return span.OpRelease
	case "addfile":
		return span.OpAddFile
	case "stats":
		return span.OpStats
	}
	return span.OpNone
}

// errCode classifies a serving-path error for span accounting.
func errCode(err error) span.ErrCode {
	switch {
	case err == nil:
		return span.ErrNone
	case errors.Is(err, ErrBusy):
		return span.ErrBusy
	case errors.Is(err, ErrTooLarge):
		return span.ErrTooLarge
	case errors.Is(err, ErrClosed):
		return span.ErrClosed
	}
	return span.ErrOther
}

// dispatch serves one request under root, the request's span; the returned
// ErrCode is the request's classification for the flight recorder (the
// caller finishes root with it, after stamping the response).
func (srv *Server) dispatch(req *Request, leases map[string]Release, nextToken *int, root *span.Active) (Response, span.ErrCode) {
	switch req.Op {
	case "addfile":
		if req.Name == "" {
			return Response{Error: "addfile: empty name"}, span.ErrOther
		}
		if _, err := srv.srm.AddFile(req.Name, bundle.Size(req.Size)); err != nil {
			return Response{Error: err.Error()}, errCode(err)
		}
		return Response{OK: true}, span.ErrNone

	case "stage":
		if len(req.Files) == 0 {
			return Response{Error: "stage: no files"}, span.ErrOther
		}
		root.SetFiles(len(req.Files))
		b, err := srv.srm.cat.Resolve(req.Files)
		if err != nil {
			return Response{Error: "srm: " + err.Error()}, span.ErrOther
		}
		rel, res, err := srv.srm.StageCtx(root.Context(), b, 0)
		root.SetBytes(int64(res.BytesLoaded))
		root.SetHit(res.Hit)
		if err != nil {
			resp := Response{Error: err.Error()}
			if errors.Is(err, ErrBusy) {
				resp.Retryable = true
				resp.RetryAfterMs = srv.retryAfterHintMs()
			}
			return resp, errCode(err)
		}
		*nextToken++
		var buf [24]byte
		token := string(strconv.AppendInt(append(buf[:0], 't'), int64(*nextToken), 10))
		leases[token] = rel
		return Response{OK: true, Token: token, Hit: res.Hit, BytesLoaded: res.BytesLoaded}, span.ErrNone

	case "release":
		rel, ok := leases[req.Token]
		if !ok {
			return Response{Error: fmt.Sprintf("release: unknown token %q", req.Token)}, span.ErrOther
		}
		delete(leases, req.Token)
		rel()
		return Response{OK: true}, span.ErrNone

	case "stats":
		st := srv.srm.Stats()
		return Response{OK: true, Stats: &st}, span.ErrNone

	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}, span.ErrOther
	}
}

// retryAfterHintMs suggests how long a busy-rejected client should wait:
// half the staging deadline (pins turn over on that scale), floored at
// 100ms, or 500ms when no deadline is configured.
func (srv *Server) retryAfterHintMs() int64 {
	if d := srv.srm.StageTimeout(); d > 0 {
		if ms := d.Milliseconds() / 2; ms >= 100 {
			return ms
		}
		return 100
	}
	return 500
}

// Client is a minimal protocol client.
type Client struct {
	conn net.Conn // Close may use conn concurrently with a round-trip
	// rec records client-observed RPC spans; nil = off. Immutable after
	// WithSpans, which must precede concurrent use (like srm.WithSpans).
	rec *span.Recorder
	mu  sync.Mutex
	in  *wireReader // guarded by mu
	out []byte      // guarded by mu; the request line being sent
}

// WithSpans attaches a flight recorder to the client: every round trip
// becomes an rpc.* request span, carrying the wire context so the server's
// tree parents under it. Call before sharing the client across goroutines.
func (c *Client) WithSpans(rec *span.Recorder) *Client {
	c.rec = rec
	return c
}

// Dial connects to an SRM server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("srm: dial: %w", err)
	}
	return &Client{conn: conn, in: newWireReader(conn)}, nil
}

// Close drops the connection, releasing all leases held through it.
func (c *Client) Close() error { return c.conn.Close() }

// RetryableError is a server rejection the client may retry after waiting
// RetryAfter (e.g. the cache was saturated with pinned bundles).
type RetryableError struct {
	Msg        string
	RetryAfter time.Duration
}

func (e *RetryableError) Error() string {
	return fmt.Sprintf("srm: server (retryable, retry after %v): %s", e.RetryAfter, e.Msg)
}

// rpcOp maps a wire op to its client-side span operation.
func rpcOp(op string) span.Op {
	switch op {
	case "stage":
		return span.OpRPCStage
	case "release":
		return span.OpRPCRelease
	case "addfile":
		return span.OpRPCAddFile
	case "stats":
		return span.OpRPCStats
	}
	return span.OpNone
}

func (c *Client) roundTrip(req Request) (Response, error) {
	// The RPC span brackets the whole round trip (encode, server, decode).
	// Its span ID rides the wire so the server parents under it; the
	// response's request ID is adopted back, joining both sides' trees.
	rpc := c.rec.StartRequest(span.Context{}, rpcOp(req.Op))
	if rpc.OK() {
		req.Span = uint64(rpc.ID())
	}
	resp, err := c.doRoundTrip(req)
	if resp.Req != 0 {
		rpc.AdoptRequest(span.RequestID(resp.Req))
	}
	rpc.SetHit(resp.Hit)
	rpc.SetBytes(int64(resp.BytesLoaded))
	switch {
	case err == nil:
		rpc.Finish(span.ErrNone)
	case isRetryable(err):
		rpc.Finish(span.ErrBusy)
	default:
		rpc.Finish(span.ErrOther)
	}
	return resp, err
}

// isRetryable reports whether err wraps a RetryableError (server busy).
func isRetryable(err error) bool {
	var re *RetryableError
	return errors.As(err, &re)
}

func (c *Client) doRoundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = appendRequest(c.out[:0], &req)
	if _, err := c.conn.Write(c.out); err != nil {
		return Response{}, fmt.Errorf("srm: send: %w", err)
	}
	var resp Response
	if err := c.in.readResponse(&resp); err != nil {
		return Response{}, fmt.Errorf("srm: recv: %w", err)
	}
	if resp.Error != "" {
		if resp.Retryable {
			return resp, &RetryableError{
				Msg:        resp.Error,
				RetryAfter: time.Duration(resp.RetryAfterMs) * time.Millisecond,
			}
		}
		return resp, fmt.Errorf("srm: server: %s", resp.Error)
	}
	return resp, nil
}

// AddFile registers a file with the server's catalog.
func (c *Client) AddFile(name string, size bundle.Size) error {
	_, err := c.roundTrip(Request{Op: "addfile", Name: name, Size: int64(size)})
	return err
}

// Stage stages a bundle by file names; the returned token must be released.
func (c *Client) Stage(files ...string) (token string, hit bool, loaded bundle.Size, err error) {
	resp, err := c.roundTrip(Request{Op: "stage", Files: files})
	if err != nil {
		return "", false, 0, err
	}
	return resp.Token, resp.Hit, resp.BytesLoaded, nil
}

// StageRetry is Stage with bounded client-side retries: a RetryableError
// (server busy) is retried after the server's retry-after hint, up to
// maxAttempts total tries. Any other error returns immediately.
func (c *Client) StageRetry(maxAttempts int, files ...string) (token string, hit bool, loaded bundle.Size, err error) {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		token, hit, loaded, err = c.Stage(files...)
		var re *RetryableError
		if err == nil || !errors.As(err, &re) {
			return token, hit, loaded, err
		}
		if attempt+1 < maxAttempts {
			c.rec.Retry(span.OpRPCStage)
			time.Sleep(re.RetryAfter)
		}
	}
	return token, hit, loaded, err
}

// Release releases a staged bundle.
func (c *Client) Release(token string) error {
	_, err := c.roundTrip(Request{Op: "release", Token: token})
	return err
}

// Stats fetches a server snapshot.
func (c *Client) Stats() (Snapshot, error) {
	resp, err := c.roundTrip(Request{Op: "stats"})
	if err != nil {
		return Snapshot{}, err
	}
	if resp.Stats == nil {
		return Snapshot{}, fmt.Errorf("srm: stats: empty response")
	}
	return *resp.Stats, nil
}
