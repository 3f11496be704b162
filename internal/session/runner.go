package session

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"instability/internal/bgp"
	"instability/internal/obs"
)

// Live-session instrumentation, shared by every Runner in the process.
var (
	obsMessages = obs.Default().Counter("irtl_session_messages_total",
		"BGP messages received and decoded by live session runners.")
	obsDecodeSeconds = obs.Default().Histogram("irtl_session_decode_seconds",
		"Time to decode one received BGP message (excludes socket wait).", nil)
	obsDecodeErrors = obs.Default().Counter("irtl_session_decode_errors_total",
		"Received BGP messages that failed to decode.")
	obsQueueDrops = obs.Default().Counter("irtl_session_queue_drops_total",
		"Sessions torn down because the outbound queue overflowed.")
)

// Runner drives a Peer over a real net.Conn: it serializes FSM input from
// the reader goroutine and wall-clock timers behind one mutex, and ships
// outbound messages through a writer goroutine so the FSM never blocks on a
// slow connection. This is the engine behind the bgpcollect route-server
// collector.
type Runner struct {
	mu     sync.Mutex
	peer   *Peer
	conn   net.Conn
	out    chan bgp.Message
	closed bool // conn is closed
	ending bool // out is closed: nothing more is queued
	done   chan struct{}
}

// drainTimeout bounds how long Close lets the writer send what is queued, so
// a peer that stopped reading cannot hold the close up.
const drainTimeout = 10 * time.Second

// NewRunner wraps conn in a session endpoint. The caller's callbacks are
// invoked with the Runner's lock held; they must not call back into the
// Runner synchronously. Send, Connect and CloseTransport are supplied by the
// Runner itself and must be left nil in cb.
func NewRunner(cfg Config, conn net.Conn, cb Callbacks) *Runner {
	r := &Runner{
		conn: conn,
		out:  make(chan bgp.Message, 4096),
		done: make(chan struct{}),
	}
	rng := rand.New(rand.NewSource(rand.Int63()))
	clock := RealClock(&r.mu, rng.Float64)
	cb.Send = r.enqueue
	cb.Connect = func() {} // the connection already exists
	cb.CloseTransport = r.closeConn
	r.peer = New(cfg, clock, cb)
	return r
}

// Peer exposes the underlying session for inspection. Use Do to touch it
// safely.
func (r *Runner) Peer() *Peer { return r.peer }

// Do runs fn with the Runner's lock held, for safe access to the Peer from
// outside the reader goroutine (e.g. to call Announce/Withdraw/Flush).
func (r *Runner) Do(fn func(p *Peer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.peer)
}

// enqueue hands a message to the writer goroutine. Called with r.mu held. A
// full queue means the peer cannot drain our updates; the session is torn
// down rather than blocked.
func (r *Runner) enqueue(msg bgp.Message) {
	if r.closed || r.ending {
		return
	}
	select {
	case r.out <- msg:
	default:
		obsQueueDrops.Inc()
		r.closeConn()
	}
}

func (r *Runner) closeConn() {
	if !r.closed {
		r.closed = true
		r.conn.Close()
	}
}

// endQueue closes out. Called with r.mu held.
func (r *Runner) endQueue() {
	if !r.ending {
		r.ending = true
		close(r.out)
	}
}

// writer sends what is queued until out is closed, then closes conn.
func (r *Runner) writer() {
	for msg := range r.out {
		if err := bgp.WriteMessage(r.conn, msg); err != nil {
			break
		}
	}
	r.conn.Close()
}

// Run starts the session over the existing connection and blocks reading
// messages until the connection fails or Close is called. It returns the
// terminal read error (io.EOF for an orderly remote close).
func (r *Runner) Run() error {
	go r.writer()
	r.mu.Lock()
	r.peer.Start()
	r.peer.TransportUp()
	r.mu.Unlock()

	var err error
	for {
		var raw []byte
		raw, err = bgp.ReadRaw(r.conn)
		if err != nil {
			break
		}
		t0 := time.Now()
		var msg bgp.Message
		msg, err = bgp.Unmarshal(raw)
		if err != nil {
			obsDecodeErrors.Inc()
			break
		}
		obsDecodeSeconds.ObserveSince(t0)
		obsMessages.Inc()
		r.mu.Lock()
		r.peer.Deliver(msg)
		closed := r.closed
		r.mu.Unlock()
		if closed {
			break
		}
	}
	r.mu.Lock()
	r.closeConn()
	r.endQueue()
	// Suppress the automatic reconnect: the conn is gone for good.
	r.peer.generation++
	r.peer.state = Idle
	r.mu.Unlock()
	close(r.done)
	return err
}

// Close ends the session in order and unblocks Run: it flushes the pending
// route changes and queues a Cease NOTIFICATION behind them; the writer sends
// everything queued, within drainTimeout, and only then closes the
// connection. It must only be called after Run has been started.
func (r *Runner) Close() {
	r.mu.Lock()
	if !r.closed && !r.ending && r.peer.state != Idle {
		r.peer.Flush()
		r.peer.send(bgp.Notification{Code: bgp.NotifCease})
	}
	r.endQueue()
	r.mu.Unlock()
	r.conn.SetWriteDeadline(time.Now().Add(drainTimeout))
	<-r.done
}
