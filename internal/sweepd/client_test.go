package sweepd

// client_test.go pins the call layer's failure semantics: truncated or
// garbled 200 bodies retry (a wire fault is not a protocol fault),
// exhausted budgets surface ErrUnreachable, the circuit breaker stops
// hammering a dead coordinator, and a worker whose coordinator stays
// gone past MaxOffline exits resumably instead of hanging forever.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestClientRetriesGarbledResponse(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Write([]byte(`{"ok": tr`)) // truncated mid-token
			return
		}
		w.Write([]byte(`{"ok": true}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, srv.Client(), 2, time.Millisecond, nil)
	var out OKResponse
	if err := c.post(context.Background(), "/claim", ClaimRequest{}, &out); err != nil {
		t.Fatalf("post with one garbled body = %v, want retried success", err)
	}
	if !out.OK || hits.Load() != 2 {
		t.Fatalf("ok=%v hits=%d, want retried once", out.OK, hits.Load())
	}
}

func TestClientPermanent4xxNotRetried(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no such shard", http.StatusBadRequest)
	}))
	defer srv.Close()
	c := newClient(srv.URL, srv.Client(), 3, time.Millisecond, nil)
	err := c.post(context.Background(), "/heartbeat", HeartbeatRequest{}, &OKResponse{})
	if err == nil || isUnreachable(err) || isLeaseLost(err) {
		t.Fatalf("4xx = %v, want a permanent protocol error", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("4xx hit the server %d times, want 1 (no retry)", hits.Load())
	}
}

func TestClientUnreachableAndCircuit(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := newClient(srv.URL, srv.Client(), 0, time.Millisecond, nil)

	// breakAfter exhausted calls trip the breaker...
	for i := 0; i < breakAfter; i++ {
		err := c.post(context.Background(), "/claim", ClaimRequest{}, &OKResponse{})
		if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("call %d = %v, want ErrUnreachable", i, err)
		}
	}
	before := hits.Load()
	// ...after which calls fail fast without touching the network.
	err := c.post(context.Background(), "/claim", ClaimRequest{}, &OKResponse{})
	if !errors.Is(err, ErrUnreachable) || !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("post with open circuit = %v, want fast ErrUnreachable", err)
	}
	if hits.Load() != before {
		t.Fatal("open circuit still hit the server")
	}
}

func TestClientCircuitHalfOpenRecovers(t *testing.T) {
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok": true}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, srv.Client(), 0, time.Millisecond, nil)
	c.brk.cooldown = 10 * time.Millisecond
	for i := 0; i < breakAfter; i++ {
		_ = c.post(context.Background(), "/claim", ClaimRequest{}, &OKResponse{})
	}
	if c.brk.allow(time.Now()) {
		t.Fatal("circuit not open after threshold failures")
	}
	healthy.Store(true)
	time.Sleep(15 * time.Millisecond)
	// Cooldown lapsed: the half-open probe goes through and closes it.
	if err := c.post(context.Background(), "/claim", ClaimRequest{}, &OKResponse{}); err != nil {
		t.Fatalf("half-open probe = %v, want success", err)
	}
	if !c.brk.allow(time.Now()) {
		t.Fatal("circuit still open after successful probe")
	}
}

// TestWorkerMaxOfflineResumableExit: a worker whose coordinator is gone
// drains and exits with ErrUnreachable once the offline budget runs
// out — not an infinite poll, not a crash.
func TestWorkerMaxOfflineResumableExit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // nothing listening: connection refused from the start
	w := NewWorker(WorkerOptions{
		Coordinator: srv.URL,
		Name:        "w",
		Retries:     1,
		Backoff:     time.Millisecond,
		Poll:        5 * time.Millisecond,
		MaxOffline:  50 * time.Millisecond,
	})
	start := time.Now()
	err := w.Run(context.Background())
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Run against dead coordinator = %v, want ErrUnreachable", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("offline exit took %s, budget was 50ms", elapsed)
	}
}
