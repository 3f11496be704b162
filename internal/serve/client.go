package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"instability/internal/collector"
	"instability/internal/obs"
	"instability/internal/store"
)

// Client talks to a bgpserve instance. Record streams use the binary
// protocol (one TCP connection per query); aggregates and status use the
// HTTP surface of the same address. The zero value is unusable — set Addr.
type Client struct {
	// Addr is the server's host:port.
	Addr string
	// Token is the API token identifying this tenant; empty is the
	// anonymous tenant.
	Token string
	// DialTimeout bounds connection establishment. Default 10s.
	DialTimeout time.Duration
}

func (c *Client) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return 10 * time.Second
}

// Query opens a streaming remote query. The returned reader implements
// collector.RecordReader, so a remote slice drops into every pipeline a
// local store query does. A shed request fails with an error wrapping
// ErrBusy or ErrQuota.
func (c *Client) Query(spec QuerySpec) (*RemoteReader, error) {
	return c.QueryCtx(context.Background(), spec)
}

// QueryCtx is Query carrying a trace: when ctx holds an active span, the
// request is sent with this client's trace identity in the v2 preamble, so
// the server's admission/scan/encode spans land in the caller's trace, and a
// "remote_query" child span covers the dial and request write.
func (c *Client) QueryCtx(ctx context.Context, spec QuerySpec) (*RemoteReader, error) {
	_, sp := obs.StartChild(ctx, "remote_query")
	sp.Annotate("addr", c.Addr)
	sp.Annotate("query", spec.String())
	conn, err := net.DialTimeout("tcp", c.Addr, c.dialTimeout())
	if err != nil {
		sp.SetError(err)
		sp.Finish()
		return nil, err
	}
	bw := bufio.NewWriter(conn)
	bw.WriteString(protoMagic)
	bw.WriteByte(protoVersion)
	// v2 request payload: 17-byte trace prefix (all zeros when untraced),
	// then the JSON request.
	payload := appendTraceCtx(nil, sp)
	body, err := json.Marshal(wireRequest{Token: c.Token, Query: spec})
	if err != nil {
		sp.SetError(err)
		sp.Finish()
		conn.Close()
		return nil, err
	}
	payload = append(payload, body...)
	if err := writeFrame(bw, frameRequest, payload); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		sp.SetError(err)
		sp.Finish()
		conn.Close()
		return nil, err
	}
	return &RemoteReader{conn: conn, br: bufio.NewReaderSize(conn, 1<<16), span: sp}, nil
}

// RemoteReader streams records from one remote query.
type RemoteReader struct {
	conn net.Conn
	br   *bufio.Reader
	span *obs.TraceSpan // remote_query; finished on Close

	buf  []byte // undecoded remainder of the current batch
	left uint64 // records remaining in the current batch
	end  *wireEnd
	err  error
}

// Next returns the next record, io.EOF at the clean end of the stream. After
// io.EOF, Stats and Generation report the server's scan accounting.
func (r *RemoteReader) Next() (collector.Record, error) {
	for {
		if r.err != nil {
			return collector.Record{}, r.err
		}
		if r.end != nil {
			return collector.Record{}, io.EOF
		}
		if r.left > 0 {
			rec, rest, err := store.DecodeRecordWire(r.buf)
			if err != nil {
				r.err = fmt.Errorf("serve: corrupt record stream: %w", err)
				return collector.Record{}, r.err
			}
			r.buf = rest
			r.left--
			return rec, nil
		}
		typ, payload, err := readFrame(r.br)
		if err != nil {
			r.err = fmt.Errorf("serve: reading frame: %w", err)
			return collector.Record{}, r.err
		}
		switch typ {
		case frameBatch:
			n, used := binary.Uvarint(payload)
			if used <= 0 {
				r.err = fmt.Errorf("serve: corrupt batch header")
				return collector.Record{}, r.err
			}
			r.buf, r.left = payload[used:], n
		case frameEnd:
			var end wireEnd
			if err := json.Unmarshal(payload, &end); err != nil {
				r.err = fmt.Errorf("serve: corrupt end frame: %w", err)
				return collector.Record{}, r.err
			}
			r.end = &end
		case frameError:
			var we wireError
			if err := json.Unmarshal(payload, &we); err != nil {
				r.err = fmt.Errorf("serve: corrupt error frame: %w", err)
			} else {
				r.err = we.error()
			}
			return collector.Record{}, r.err
		default:
			r.err = fmt.Errorf("serve: unexpected frame type %d", typ)
			return collector.Record{}, r.err
		}
	}
}

// Stats returns the server-side scan accounting; valid after io.EOF.
func (r *RemoteReader) Stats() store.ScanStats {
	if r.end == nil {
		return store.ScanStats{}
	}
	return r.end.Stats
}

// Generation returns the store generation the result was computed under;
// valid after io.EOF.
func (r *RemoteReader) Generation() uint64 {
	if r.end == nil {
		return 0
	}
	return r.end.Generation
}

// Explain returns the server-side query profile, or nil before the end frame
// arrives (or when talking to a server that does not send one).
func (r *RemoteReader) Explain() *store.Explain {
	if r.end == nil {
		return nil
	}
	return r.end.Explain
}

// Close releases the connection and finishes the remote_query span.
func (r *RemoteReader) Close() error {
	if r.span != nil {
		if r.end != nil {
			r.span.AnnotateInt("records", int64(r.end.Records))
		}
		r.span.Finish()
		r.span = nil
	}
	return r.conn.Close()
}

// Aggregate fetches one cached aggregate over HTTP. top bounds ranked kinds
// (0 = server default).
func (c *Client) Aggregate(kind string, spec QuerySpec, top int) (*Aggregate, error) {
	return c.AggregateCtx(context.Background(), kind, spec, top)
}

// AggregateCtx is Aggregate carrying a trace: an active span in ctx is
// propagated to the server in the X-Irtl-Trace header.
func (c *Client) AggregateCtx(ctx context.Context, kind string, spec QuerySpec, top int) (*Aggregate, error) {
	ctx, sp := obs.StartChild(ctx, "remote_aggregate")
	defer sp.Finish()
	sp.Annotate("addr", c.Addr)
	sp.Annotate("kind", kind)
	v := url.Values{}
	v.Set("kind", kind)
	if top > 0 {
		v.Set("top", strconv.Itoa(top))
	}
	setSpec(v, spec)
	body, err := c.httpGetCtx(ctx, "/v1/aggregate?"+v.Encode())
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	var agg Aggregate
	if err := json.Unmarshal(body, &agg); err != nil {
		return nil, fmt.Errorf("serve: bad aggregate response: %w", err)
	}
	sp.AnnotateInt("records", int64(agg.Records))
	return &agg, nil
}

// Statz fetches the server's status document.
func (c *Client) Statz() (*Statz, error) {
	body, err := c.httpGet("/v1/statz")
	if err != nil {
		return nil, err
	}
	var st Statz
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("serve: bad statz response: %w", err)
	}
	return &st, nil
}

// QueryHTTP streams a record query over the HTTP NDJSON endpoint. It exists
// so tests (and HTTP-only tenants) can prove protocol equivalence; CLIs use
// the binary Query. When the server's scan fails midway the records read up
// to that point are returned together with the error.
func (c *Client) QueryHTTP(spec QuerySpec) ([]collector.Record, error) {
	return c.QueryHTTPCtx(context.Background(), spec)
}

// QueryHTTPCtx is QueryHTTP propagating an active trace via X-Irtl-Trace.
func (c *Client) QueryHTTPCtx(ctx context.Context, spec QuerySpec) ([]collector.Record, error) {
	v := url.Values{}
	setSpec(v, spec)
	if spec.Limit > 0 {
		v.Set("limit", strconv.Itoa(spec.Limit))
	}
	req, err := http.NewRequest("GET", "http://"+c.Addr+"/v1/records?"+v.Encode(), nil)
	if err != nil {
		return nil, err
	}
	c.auth(req)
	c.traceHeader(ctx, req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeHTTPError(resp)
	}
	var out []collector.Record
	dec := json.NewDecoder(resp.Body)
	for {
		var rj RecordJSON
		if err := dec.Decode(&rj); err == io.EOF {
			// Trailers arrive with the end of the body: a scan that failed
			// midway says so here, and what was read is only a prefix.
			if msg := resp.Trailer.Get(scanErrorTrailer); msg != "" {
				return out, wireError{Code: codeInternal, Msg: msg}.error()
			}
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("serve: bad record stream: %w", err)
		}
		rec, err := rj.Record()
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

func setSpec(v url.Values, spec QuerySpec) {
	set := func(k, val string) {
		if val != "" {
			v.Set(k, val)
		}
	}
	set("from", spec.From)
	set("to", spec.To)
	set("peer", spec.Peer)
	set("origin", spec.Origin)
	set("prefix", spec.Prefix)
	set("type", spec.Type)
}

func (c *Client) httpClient() *http.Client {
	return &http.Client{Timeout: 5 * time.Minute}
}

func (c *Client) auth(req *http.Request) {
	if c.Token != "" {
		req.Header.Set("X-Irtl-Token", c.Token)
	}
}

// traceHeader attaches the ctx's active span identity, if any, so the server
// joins the caller's trace.
func (c *Client) traceHeader(ctx context.Context, req *http.Request) {
	if h := obs.SpanFromContext(ctx).Header(); h != "" {
		req.Header.Set(obs.TraceHeader, h)
	}
}

func (c *Client) httpGet(path string) ([]byte, error) {
	return c.httpGetCtx(context.Background(), path)
}

func (c *Client) httpGetCtx(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequest("GET", "http://"+c.Addr+path, nil)
	if err != nil {
		return nil, err
	}
	c.auth(req)
	c.traceHeader(ctx, req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeHTTPError(resp)
	}
	return io.ReadAll(resp.Body)
}

func decodeHTTPError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var we wireError
	if json.Unmarshal(body, &we) == nil && we.Code != "" {
		return we.error()
	}
	return fmt.Errorf("serve: HTTP %d: %s", resp.StatusCode, body)
}
