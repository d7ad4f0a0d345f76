package collab

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/memnet"
)

// chaosWorkload runs `clients` concurrent editors of "doc", each
// prepending `edits` unique `;`-terminated markers, against an
// already-started server reachable through d. Every client failure is fatal: under
// automatic reconnect+resume a chaos run must complete the same workload
// a fault-free run does.
func chaosWorkload(t *testing.T, d Dialer, clients, edits int, opts ClientOptions) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := dialDoc(d, opts)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", id, err)
				return
			}
			defer c.Close()
			for j := 0; j < edits; j++ {
				if _, err := c.Insert(0, fmt.Sprintf("c%d-e%d;", id, j)); err != nil {
					errs <- fmt.Errorf("client %d edit %d: %w", id, j, err)
					return
				}
			}
			if err := c.Bye(); err != nil {
				errs <- fmt.Errorf("client %d: bye: %w", id, err)
				return
			}
			errs <- nil
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// markerFingerprint is the closed-form oracle for the marker workloads:
// the canonical fingerprint of each listed client's markers c<id>-e<j>;
// for j < edits, every one written exactly once.
func markerFingerprint(clients []int, edits int) uint64 {
	var sb strings.Builder
	for _, id := range clients {
		for j := 0; j < edits; j++ {
			fmt.Fprintf(&sb, "c%d-e%d;", id, j)
		}
	}
	return CanonicalFingerprint(sb.String())
}

// checkExactlyOnce asserts every marker of the workload appears in the
// final document exactly once — no acked edit lost, no retried edit
// duplicated — that the canonical fingerprint equals the closed-form
// oracle's, and that the edit counter matches exactly.
func checkExactlyOnce(t *testing.T, doc string, gotEdits int64, clients, edits int) {
	t.Helper()
	ids := make([]int, clients)
	for id := range ids {
		ids[id] = id
		for j := 0; j < edits; j++ {
			marker := fmt.Sprintf("c%d-e%d;", id, j)
			if n := strings.Count(doc, marker); n != 1 {
				t.Errorf("marker %q appears %d times, want exactly 1", marker, n)
			}
		}
	}
	if got, want := CanonicalFingerprint(doc), markerFingerprint(ids, edits); got != want {
		t.Errorf("canonical fingerprint %016x != closed-form %016x", got, want)
	}
	if want := int64(clients * edits); gotEdits != want {
		t.Errorf("edits = %d, want exactly %d", gotEdits, want)
	}
}

// TestChaosConvergence runs the workload with seeded drops and resets on
// the client links and demands the canonical final state every fault-free
// run has: each marker once (order varies legitimately with MergeAny's
// first-completed order) and an exact edit count.
func TestChaosConvergence(t *testing.T) {
	const clients, edits = 4, 10
	// Every write may be dropped or reset the connection; the clients'
	// reconnect+resume must still complete the whole workload.
	fnet := faultnet.New(faultnet.Config{Seed: 42, DropProb: 0.05, ResetProb: 0.02})
	fl := fnet.Listen(0, 64)
	s := serveDoc(t, fl, "", Options{})
	chaosWorkload(t, fl, clients, edits, ClientOptions{
		RequestTimeout: 100 * time.Millisecond,
		Backoff:        Backoff{Base: time.Millisecond, Cap: 10 * time.Millisecond, MaxAttempts: 200},
	})
	checkExactlyOnce(t, finalDoc(t, s, "doc"), s.Edits(), clients, edits)
	if injected := fnet.Stats().Get("drop") + fnet.Stats().Get("reset"); injected == 0 {
		t.Fatal("no faults were injected; the chaos run proved nothing")
	}
}

// TestChaosPartitionPulse cuts the server off mid-workload with bounded
// partitions that heal after swallowing writes; resume must carry every
// client through.
func TestChaosPartitionPulse(t *testing.T) {
	const clients, edits = 3, 8
	fnet := faultnet.New(faultnet.Config{Seed: 7})
	fl := fnet.Listen(0, 64)
	s := serveDoc(t, fl, "", Options{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			time.Sleep(15 * time.Millisecond)
			fnet.PartitionFor(0, 4) // blackhole the next 4 writes, then heal
		}
	}()
	chaosWorkload(t, fl, clients, edits, ClientOptions{
		RequestTimeout: 50 * time.Millisecond,
		Backoff:        Backoff{Base: time.Millisecond, Cap: 10 * time.Millisecond, MaxAttempts: 400},
	})
	<-done
	fnet.Heal(0)
	checkExactlyOnce(t, finalDoc(t, s, "doc"), s.Edits(), clients, edits)
}

// TestOverloadShedsWithoutLoss drives more clients than the admission
// gate admits, with a starved token bucket: the server must shed with
// BUSY (never silently), and every shed request must eventually complete
// without loss or duplication.
func TestOverloadShedsWithoutLoss(t *testing.T) {
	const clients, edits = 4, 8
	l := memnet.Listen(64)
	s := serveDoc(t, l, "", Options{
		Admission: Admission{
			MaxSessions: 2,
			RateBurst:   2,
			RateEvery:   3,
			RetryAfter:  time.Millisecond,
		},
	})
	chaosWorkload(t, l, clients, edits, ClientOptions{
		RequestTimeout: time.Second,
		Backoff:        Backoff{Base: time.Millisecond, Cap: 5 * time.Millisecond, MaxAttempts: 2000},
	})
	checkExactlyOnce(t, finalDoc(t, s, "doc"), s.Edits(), clients, edits)
	shed := s.Stats().Get("shed") + s.Stats().Get("busy_rate")
	if shed == 0 {
		t.Fatal("overload run shed nothing; the gates were never exercised")
	}
}
