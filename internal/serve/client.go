package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"instability/internal/collector"
	"instability/internal/obs"
	"instability/internal/store"
)

// Client talks to a bgpserve instance over HTTP: record streams come back
// from /v1/records as an IRTL log (Query) or NDJSON (QueryHTTP), aggregates
// and status as JSON. The zero value is unusable — set Addr.
type Client struct {
	// Addr is the server's host:port.
	Addr string
	// Token is the API token identifying this tenant; empty is the
	// anonymous tenant.
	Token string
}

// Query opens a streaming remote query. The returned reader implements
// collector.RecordReader, so a remote slice drops into every pipeline a
// local store query does. A shed request fails with an error wrapping
// ErrBusy or ErrQuota.
func (c *Client) Query(spec QuerySpec) (*RemoteReader, error) {
	return c.QueryCtx(context.Background(), spec)
}

// QueryCtx is Query under ctx, which cancels the stream and may carry a
// trace: with an active span in ctx, a "remote_query" child covers the
// request and the whole stream, and the server's admission/scan/encode spans
// join the caller's trace through the X-Irtl-Trace header.
func (c *Client) QueryCtx(ctx context.Context, spec QuerySpec) (*RemoteReader, error) {
	ctx, sp := obs.StartChild(ctx, "remote_query")
	sp.Annotate("addr", c.Addr)
	sp.Annotate("query", spec.String())
	resp, err := c.get(ctx, recordsPath(spec), irtqType)
	if err != nil {
		sp.SetError(err)
		sp.Finish()
		return nil, err
	}
	return &RemoteReader{resp: resp, span: sp}, nil
}

// RemoteReader streams records from one remote query: the response body is
// an IRTL log, read by collector.Reader, and its trailers end it.
type RemoteReader struct {
	resp *http.Response
	span *obs.TraceSpan // remote_query; finished on Close

	log *collector.Reader // opened by the first Next: the header comes with the first frame
	n   int               // records read
	ex  *store.Explain    // the end trailer's, after a clean end
	err error             // sticky; io.EOF after a clean end
}

// Next returns the next record, io.EOF at the clean end of the stream. After
// io.EOF, Explain and Generation report the server's scan accounting.
func (r *RemoteReader) Next() (collector.Record, error) {
	if r.err != nil {
		return collector.Record{}, r.err
	}
	if r.log == nil {
		r.log, r.err = collector.NewReader(r.resp.Body)
	}
	if r.err == nil {
		var rec collector.Record
		if rec, r.err = r.log.Next(); r.err == nil {
			r.n++
			return rec, nil
		}
	}
	// The log stopped, cleanly or not: the trailers say how the stream did.
	if r.ex, r.err = streamEnd(r.resp.Trailer, r.err); r.err == nil {
		r.err = io.EOF
	}
	return collector.Record{}, r.err
}

// Close releases the response and finishes the remote_query span.
func (r *RemoteReader) Close() error {
	if r.span != nil {
		if r.ex != nil {
			r.span.AnnotateInt("records", int64(r.n))
		}
		r.span.Finish()
		r.span = nil
	}
	return r.resp.Body.Close()
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
	body, err := c.httpGetCtx(context.Background(), "/v1/statz")
	if err != nil {
		return nil, err
	}
	var st Statz
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("serve: bad statz response: %w", err)
	}
	return &st, nil
}

// QueryHTTP streams a record query as NDJSON. It exists so tests (and
// HTTP-only tenants) can prove the two encodings equivalent; CLIs use Query.
// When the server's scan fails midway, or the stream ends without its end
// trailer, the records read up to that point are returned together with the
// error.
func (c *Client) QueryHTTP(spec QuerySpec) ([]collector.Record, error) {
	return c.QueryHTTPCtx(context.Background(), spec)
}

// QueryHTTPCtx is QueryHTTP under ctx, propagating an active trace via
// X-Irtl-Trace.
func (c *Client) QueryHTTPCtx(ctx context.Context, spec QuerySpec) ([]collector.Record, error) {
	resp, err := c.get(ctx, recordsPath(spec), "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []collector.Record
	dec := json.NewDecoder(resp.Body)
	for {
		var rj RecordJSON
		if err := dec.Decode(&rj); err != nil {
			if err != io.EOF {
				err = fmt.Errorf("serve: bad record stream: %w", err)
			}
			_, err = streamEnd(resp.Trailer, err)
			return out, err
		}
		rec, err := rj.Record()
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// recordsPath is the /v1/records request for spec.
func recordsPath(spec QuerySpec) string {
	v := url.Values{}
	setSpec(v, spec)
	if spec.Limit > 0 {
		v.Set("limit", strconv.Itoa(spec.Limit))
	}
	return "/v1/records?" + v.Encode()
}

func setSpec(v url.Values, spec QuerySpec) {
	for _, p := range spec.params() {
		if *p.v != "" {
			v.Set(p.name, *p.v)
		}
	}
}

// get issues one GET carrying the tenant's token and ctx's trace, asking for
// the accept encoding when it is not empty, through http.DefaultClient: no
// total timeout, so a long record stream is cut only by ctx. A status other
// than 200 comes back as the server's typed error.
func (c *Client) get(ctx context.Context, path, accept string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+c.Addr+path, nil)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("X-Irtl-Token", c.Token)
	}
	if h := obs.SpanFromContext(ctx).Header(); h != "" {
		req.Header.Set(obs.TraceHeader, h)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeHTTPError(resp)
	}
	return resp, nil
}

// httpGetCtx fetches one whole JSON document, within five minutes.
func (c *Client) httpGetCtx(ctx context.Context, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	defer cancel()
	resp, err := c.get(ctx, path, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
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
