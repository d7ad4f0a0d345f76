package mergeable

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ot"
)

// TestRunCoalescing pins the op streams the run-buffered recorders produce:
// append/push bursts become one composite SeqInsert, pop bursts one
// SeqDelete, and a push immediately popped again cancels to nothing.
func TestRunCoalescing(t *testing.T) {
	t.Run("list-append-run", func(t *testing.T) {
		l := NewList[int]()
		for i := 0; i < 5; i++ {
			l.Append(i)
		}
		ops := l.Log().LocalOps()
		if len(ops) != 1 {
			t.Fatalf("LocalOps = %v, want one composite insert", ops)
		}
		ins, ok := ops[0].(ot.SeqInsert)
		if !ok || ins.Pos != 0 || len(ins.Elems) != 5 {
			t.Fatalf("LocalOps[0] = %v, want SeqInsert{0, [0 1 2 3 4]}", ops[0])
		}
	})
	t.Run("queue-pop-run", func(t *testing.T) {
		q := NewQueue(1, 2, 3, 4)
		for i := 0; i < 3; i++ {
			q.PopFront()
		}
		ops := q.Log().LocalOps()
		if len(ops) != 1 || ops[0] != (ot.SeqDelete{Pos: 0, N: 3}) {
			t.Fatalf("LocalOps = %v, want [SeqDelete{0,3}]", ops)
		}
	})
	t.Run("push-pop-cancels", func(t *testing.T) {
		q := NewQueue[int]()
		for i := 0; i < 10; i++ {
			q.Push(i)
			if v, ok := q.PopFront(); !ok || v != i {
				t.Fatalf("PopFront = %v, %v", v, ok)
			}
		}
		if ops := q.Log().LocalOps(); len(ops) != 0 {
			t.Fatalf("steady-state push/pop recorded %v, want nothing", ops)
		}
	})
	t.Run("partial-cancel", func(t *testing.T) {
		l := NewList[int]()
		l.Append(10, 11, 12, 13)
		l.Delete(1) // removes 11, still inside the pending run
		ops := l.Log().LocalOps()
		if len(ops) != 1 {
			t.Fatalf("LocalOps = %v, want one spliced insert", ops)
		}
		ins := ops[0].(ot.SeqInsert)
		if fmt.Sprintf("%v", ins.Elems) != "[10 12 13]" {
			t.Fatalf("spliced run = %v, want [10 12 13]", ins.Elems)
		}
	})
	t.Run("set-run-last-writer", func(t *testing.T) {
		l := NewList(0, 0, 0)
		for k := 0; k < 30; k++ {
			l.Set(k%3, k)
		}
		ops := l.Log().LocalOps()
		if len(ops) != 3 {
			t.Fatalf("LocalOps = %v, want one set per distinct position", ops)
		}
		// First-write order with last-written values: 27, 28, 29 at 0, 1, 2.
		for i, op := range ops {
			set := op.(ot.SeqSet)
			if set.Pos != i || set.Elem != 27+i {
				t.Fatalf("ops[%d] = %v, want SeqSet{%d, %d}", i, op, i, 27+i)
			}
		}
		if fmt.Sprintf("%v", l.Values()) != "[27 28 29]" {
			t.Fatalf("Values = %v", l.Values())
		}
	})
	t.Run("set-run-sealed-by-insert", func(t *testing.T) {
		l := NewList(1, 2)
		l.Set(0, 9)
		l.Append(3)
		l.Set(0, 8)
		ops := l.Log().LocalOps()
		if len(ops) != 3 {
			t.Fatalf("LocalOps = %v, want set, insert, set", ops)
		}
		if _, ok := ops[0].(ot.SeqSet); !ok {
			t.Fatalf("ops[0] = %v, want the pre-insert set first", ops[0])
		}
		if _, ok := ops[1].(ot.SeqInsert); !ok {
			t.Fatalf("ops[1] = %v, want the insert second", ops[1])
		}
	})
	t.Run("mixed-breaks-run", func(t *testing.T) {
		l := NewList[int]()
		l.Append(1, 2)
		l.Set(0, 9)
		l.Append(3)
		ops := l.Log().LocalOps()
		if len(ops) != 3 {
			t.Fatalf("LocalOps = %v, want insert, set, insert", ops)
		}
	})
	t.Run("generic-record-does-not-coalesce", func(t *testing.T) {
		var lg Log
		lg.Record(ot.SeqDelete{Pos: 0, N: 1})
		lg.Record(ot.SeqDelete{Pos: 0, N: 1})
		if ops := lg.LocalOps(); len(ops) != 2 {
			t.Fatalf("generic Record coalesced: %v", ops)
		}
	})
}

// TestRunCoalescedMergeEquivalence replays the same mutation program
// against a structure and applies its (coalesced) local ops to a fresh
// copy of the base: the op stream must reproduce the exact final state.
func TestRunCoalescedMergeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		base := make([]int, r.Intn(6))
		for i := range base {
			base[i] = -1 - i
		}
		l := NewList(base...)
		for step := 0; step < 12; step++ {
			switch r.Intn(4) {
			case 0, 1:
				l.Append(trial*100 + step)
			case 2:
				if n := l.Len(); n > 0 {
					l.Delete(r.Intn(n))
				}
			default:
				if n := l.Len(); n > 0 {
					l.Set(r.Intn(n), trial*100+step)
				}
			}
		}
		replay := NewList(base...)
		if err := replay.ApplyRemote(l.Log().LocalOps()); err != nil {
			t.Fatalf("trial %d: replay failed: %v", trial, err)
		}
		if got, want := fmt.Sprintf("%v", replay.Values()), fmt.Sprintf("%v", l.Values()); got != want {
			t.Fatalf("trial %d: replayed %s, want %s (ops %v)", trial, got, want, l.Log().LocalOps())
		}
	}
}

// TestIncrementalFingerprint checks the running-hash fingerprints stay
// bit-identical to a from-scratch rebuild of the same contents across
// random mutation sequences, clones and adopts.
func TestIncrementalFingerprint(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		l := NewList[int]()
		q := NewQueue[string]()
		tx := NewText("")
		for step := 0; step < 20; step++ {
			v := r.Intn(1000) - 300
			switch r.Intn(5) {
			case 0:
				l.Append(v)
				q.Push(fmt.Sprintf("s%d", v))
				tx.Append(fmt.Sprintf("%d;", v))
			case 1:
				if l.Len() > 0 {
					l.Set(r.Intn(l.Len()), v)
				}
			case 2:
				q.PopFront()
			case 3:
				if l.Len() > 0 {
					l.Delete(r.Intn(l.Len()))
				}
				if tx.Len() > 0 {
					tx.Delete(r.Intn(tx.Len()), 1)
				}
			default:
				// interleave fingerprint reads so the cache arms mid-history
				_ = l.Fingerprint()
				_ = q.Fingerprint()
				_ = tx.Fingerprint()
			}
		}
		if got, want := l.Fingerprint(), NewList(l.Values()...).Fingerprint(); got != want {
			t.Fatalf("trial %d: list fingerprint %x, rebuild %x (%v)", trial, got, want, l.Values())
		}
		if got, want := q.Fingerprint(), NewQueue(q.Values()...).Fingerprint(); got != want {
			t.Fatalf("trial %d: queue fingerprint %x, rebuild %x (%v)", trial, got, want, q.Values())
		}
		if got, want := tx.Fingerprint(), NewText(tx.String()).Fingerprint(); got != want {
			t.Fatalf("trial %d: text fingerprint %x, rebuild %x (%q)", trial, got, want, tx.String())
		}
		// Fingerprints must also match the legacy FNV rendering exactly.
		if got, want := l.Fingerprint(), FingerprintString(l.render()); got != want {
			t.Fatalf("trial %d: list fingerprint %x diverges from rendering hash %x", trial, got, want)
		}
		if got, want := q.Fingerprint(), q2Render(q.Values()); got != want {
			t.Fatalf("trial %d: queue fingerprint %x diverges from rendering hash %x", trial, got, want)
		}
		clone := l.CloneValue().(*List[int])
		clone.Append(12345)
		l.Append(999)
		if got, want := clone.Fingerprint(), NewList(clone.Values()...).Fingerprint(); got != want {
			t.Fatalf("trial %d: cloned list fingerprint %x, rebuild %x", trial, got, want)
		}
		if got, want := l.Fingerprint(), NewList(l.Values()...).Fingerprint(); got != want {
			t.Fatalf("trial %d: parent list fingerprint %x after clone, rebuild %x", trial, got, want)
		}
	}
}

// q2Render hashes a queue rendering the way the legacy implementation did.
func q2Render[T any](vals []T) uint64 {
	s := "queue["
	for i, v := range vals {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%v", v)
	}
	return FingerprintString(s + "]")
}

// TestLogRecycle pins the recycle contract: only a fully-empty state is
// pooled, and the log stays usable afterwards.
func TestLogRecycle(t *testing.T) {
	var lg Log
	lg.Record(ot.CounterAdd{Delta: 1})
	lg.Recycle() // has locals: must refuse
	if len(lg.LocalOps()) != 1 {
		t.Fatal("Recycle dropped pending local ops")
	}
	lg.FlushLocal()
	lg.Trim(lg.CommittedLen())
	lg.Recycle() // committed emptied by trim: recycles
	if lg.CommittedLen() != 1 {
		t.Fatalf("CommittedLen = %d after recycle, want 1 (versions stay monotone)", lg.CommittedLen())
	}
	if got := lg.CommittedSince(1); len(got) != 0 {
		t.Fatalf("CommittedSince(1) = %v after recycle, want empty", got)
	}
	lg.Record(ot.CounterAdd{Delta: 2}) // must lazily reallocate
	if len(lg.LocalOps()) != 1 {
		t.Fatal("log unusable after recycle")
	}
	lg.FlushLocal()
	if lg.CommittedLen() != 2 {
		t.Fatalf("CommittedLen = %d after post-recycle flush, want 2", lg.CommittedLen())
	}
}
