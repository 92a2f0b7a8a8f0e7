package sweepd

// client.go is the coordinator-call layer every worker request goes
// through: JSON POST with a per-attempt deadline, a retry budget,
// exponential backoff with jitter, and a circuit breaker. Transient
// failures — connection refused, timeouts, 5xx, truncated or garbled
// response bodies — are retried; HTTP 409 maps to ErrLeaseLost and any
// other 4xx to a permanent error, both surfaced immediately. A call
// that exhausts its budget surfaces ErrUnreachable and trips the
// breaker: for a cooldown window every post fails fast without touching
// the network, so a fleet whose coordinator is down drains its
// in-flight work instead of stacking timeouts. Jitter decorrelates
// workers that all lost the same coordinator at the same moment; it
// deliberately uses math/rand, not the simulation's seeded streams —
// scheduling noise must never touch result determinism.
//
// Deadlines are per attempt and per endpoint, not per client: control
// calls (claim, heartbeat, complete) get a short deadline, /report — a
// potentially large streamed batch — a long one. The old blanket
// http.Client{Timeout} could kill a legitimate slow report and could
// not bound a hung dial tighter than the slowest endpoint needed.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrUnreachable is returned when a coordinator call exhausts its retry
// budget on transient failures, or fails fast because the circuit is
// open. It is the worker's drain signal: finish what is in flight,
// then exit resumably if the coordinator stays gone past MaxOffline.
var ErrUnreachable = errors.New("sweepd: coordinator unreachable")

// Per-endpoint deadlines and circuit-breaker settings.
const (
	// DefaultCallTimeout bounds one attempt of a control call (claim,
	// heartbeat, complete, status).
	DefaultCallTimeout = 10 * time.Second
	// DefaultReportTimeout bounds one attempt of a /report, whose body
	// can carry a large batch of records.
	DefaultReportTimeout = 2 * time.Minute
	// breakAfter consecutive exhausted calls open the circuit...
	breakAfter = 3
	// ...for breakCooldown, during which every call fails fast.
	breakCooldown = 5 * time.Second
)

// breaker is a minimal consecutive-failure circuit breaker. A
// "failure" is a whole post() exhausting its retries — any definitive
// server response (2xx, 409, 4xx) proves reachability and resets it.
type breaker struct {
	mu        sync.Mutex
	fails     int
	openUntil time.Time
	threshold int
	cooldown  time.Duration
}

// allow reports whether a call may proceed (the circuit is closed, or
// the cooldown lapsed and this call is the half-open probe).
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !now.Before(b.openUntil)
}

func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.openUntil = time.Time{}
	b.mu.Unlock()
}

// failure records an exhausted call; reports whether this one opened
// the circuit.
func (b *breaker) failure(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.fails < b.threshold {
		return false
	}
	opened := now.After(b.openUntil)
	b.openUntil = now.Add(b.cooldown)
	return opened
}

type client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	brk     breaker

	retried     *obs.Counter // "sweepd.client.retries"
	circuitOpen *obs.Counter // "sweepd.client.circuit_open"
	unreachable *obs.Counter // "sweepd.client.unreachable"

	mu  sync.Mutex
	rng *rand.Rand
}

// newClient builds the call layer; zero-valued knobs get defaults.
func newClient(base string, hc *http.Client, retries int, backoff time.Duration, tel *obs.Registry) *client {
	if hc == nil {
		// Deadlines are per attempt via context; a Timeout here would
		// cap /report and /claim with one blanket number again.
		hc = &http.Client{}
	}
	if retries <= 0 {
		retries = 5
	}
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}
	if tel == nil {
		tel = obs.Default
	}
	return &client{
		base:        base,
		hc:          hc,
		retries:     retries,
		backoff:     backoff,
		brk:         breaker{threshold: breakAfter, cooldown: breakCooldown},
		retried:     tel.Counter("sweepd.client.retries"),
		circuitOpen: tel.Counter("sweepd.client.circuit_open"),
		unreachable: tel.Counter("sweepd.client.unreachable"),
	}
}

// transientErr marks an attempt failure as retryable.
type transientErr struct{ err error }

func (e transientErr) Error() string { return e.err.Error() }
func (e transientErr) Unwrap() error { return e.err }

// isLeaseLost reports whether err (possibly wrapped) is a lease loss.
func isLeaseLost(err error) bool { return errors.Is(err, ErrLeaseLost) }

// isUnreachable reports whether err is the drain signal.
func isUnreachable(err error) bool { return errors.Is(err, ErrUnreachable) }

// jitter scales d by a uniform factor in [0.5, 1.5).
func (c *client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	f := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// timeoutFor picks the per-attempt deadline for an endpoint.
func (c *client) timeoutFor(path string) time.Duration {
	if path == "/report" {
		return DefaultReportTimeout
	}
	return DefaultCallTimeout
}

// post sends in as JSON to path and decodes the response into out,
// retrying transient failures with exponential backoff + jitter. Each
// attempt runs under its own deadline; ctx bounds the whole call
// including backoff sleeps. Exhausting the budget returns
// ErrUnreachable (wrapping the last cause) and feeds the breaker.
func (c *client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("sweepd: marshal %s request: %w", path, err)
	}
	if !c.brk.allow(time.Now()) {
		c.unreachable.Inc()
		return fmt.Errorf("%w: circuit open for %s", ErrUnreachable, path)
	}
	url := strings.TrimRight(c.base, "/") + path
	attemptTimeout := c.timeoutFor(path)
	delay := c.backoff
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.retried.Inc()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.jitter(delay)):
			}
			delay *= 2
		}
		err := func() error {
			actx, cancel := context.WithTimeout(ctx, attemptTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := c.hc.Do(req)
			if err != nil {
				return transientErr{err}
			}
			msg, status := drain(resp)
			switch {
			case status == http.StatusOK:
				c.brk.success()
				if out == nil {
					return nil
				}
				if err := json.Unmarshal(msg, out); err != nil {
					// A garbled or truncated body under a 200 is a wire
					// fault, not a protocol fault: retry.
					return transientErr{fmt.Errorf("decode %s response: %w", path, err)}
				}
				return nil
			case status == http.StatusConflict:
				c.brk.success() // reachable, definitive
				return fmt.Errorf("%w: %s", ErrLeaseLost, strings.TrimSpace(string(msg)))
			case status >= 400 && status < 500:
				c.brk.success() // reachable, definitive
				return fmt.Errorf("sweepd: %s: %s (%d)", path, strings.TrimSpace(string(msg)), status)
			default:
				return transientErr{fmt.Errorf("%s: %s (%d)", path, strings.TrimSpace(string(msg)), status)}
			}
		}()
		if err == nil {
			return nil
		}
		var te transientErr
		if !errors.As(err, &te) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = te.err
	}
	c.unreachable.Inc()
	if c.brk.failure(time.Now()) {
		c.circuitOpen.Inc()
	}
	return fmt.Errorf("%w: %s failed after %d attempts: %v", ErrUnreachable, path, c.retries+1, lastErr)
}

// drain reads and closes the response body (keep-alive hygiene).
func drain(resp *http.Response) ([]byte, int) {
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return b, resp.StatusCode
}
