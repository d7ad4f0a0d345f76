package explore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/collab"
	"repro/internal/faultnet"
	"repro/internal/memnet"
	"repro/internal/mergeable"
	"repro/internal/task"
)

// Sized scenarios: the small fixtures' properties under load, scaled by
// Env.Size (zero means 1) rather than by a wall-clock budget.

// failed is a schedule that reports err as soon as it runs.
func failed(err error) task.Func {
	return func(*task.Ctx, []mergeable.Mergeable) error { return err }
}

// markerSet is the closed form of a marker workload: every listed
// client's markers c<id>-e<j>; for j < edits, each once.
func markerSet(edits int, ids ...int) string {
	var sb strings.Builder
	for _, id := range ids {
		for j := 0; j < edits; j++ {
			fmt.Fprintf(&sb, "c%d-e%d;", id, j)
		}
	}
	return sb.String()
}

// canonicalText is the outcome of a scenario that folds its result into
// one Text of ;-terminated records: their canonical fingerprint.
func canonicalText(data []mergeable.Mergeable) uint64 {
	return collab.CanonicalFingerprint(data[0].(*mergeable.Text).String())
}

// writeMarkers runs clients concurrent sessions: client id USEs doc(id),
// prepends edits markers c<id>-e<j>; — flushed in wire batches of batch
// when batch > 0 — and says BYE. after(j), when non-nil, runs on client
// 0 after its edit j. It returns the first client error.
func writeMarkers(d collab.Dialer, clients, edits, batch int, doc func(id int) string, opts collab.ClientOptions, after func(j int) error) error {
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs <- func() error {
				c, err := collab.DialWith(d, opts)
				if err != nil {
					return fmt.Errorf("client %d: dial: %w", id, err)
				}
				defer c.Close()
				if _, err := c.Use(doc(id)); err != nil {
					return fmt.Errorf("client %d: use: %w", id, err)
				}
				for j := 0; j < edits; j++ {
					marker := fmt.Sprintf("c%d-e%d;", id, j)
					if batch <= 0 {
						_, err = c.Insert(0, marker)
					} else if c.QueueInsert(0, marker); c.Queued() >= batch || j == edits-1 {
						err = c.Flush()
					}
					if err == nil && id == 0 && after != nil {
						err = after(j)
					}
					if err != nil {
						return fmt.Errorf("client %d edit %d: %w", id, j, err)
					}
				}
				return c.Bye()
			}()
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Collab is the collab front door under chaos: eight clients each prepend
// Size unique markers to one document through a faultnet whose every
// drop, reset and dial failure is a decision, and client 0 may pulse a
// self-healing partition after each of its edits. Clients reconnect and
// resume on their own, so every schedule must finish — a failed client is
// a violation — on the closed form, every marker once. The outcome is the
// document's canonical fingerprint: c5f2f3d793b78755 at size 50.
func Collab() Scenario {
	return Scenario{
		Name:          "collab",
		Deterministic: true,
		Fingerprint:   canonicalText,
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			edits := max(env.Size(), 1)
			data := []mergeable.Mergeable{mergeable.NewText("")}
			fnet := faultnet.New(faultnet.Config{Decider: env.Decide})
			l := fnet.Listen(0, 64)
			srv, err := collab.ServeSharded(l, map[string]string{"doc": ""}, collab.ShardedOptions{Front: collab.Options{Seed: 1}})
			if err != nil {
				return failed(err), data
			}
			env.Defer(func() { srv.Shutdown() }) // idempotent; normally already down
			return func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				err := writeMarkers(l, 8, edits, 0, func(int) string { return "doc" }, collab.ClientOptions{
					RequestTimeout: 100 * time.Millisecond,
					Backoff:        collab.Backoff{Base: time.Millisecond, Cap: 20 * time.Millisecond, MaxAttempts: 2000},
				}, func(int) error {
					if env.Decide("collab.pulse", 2) == 1 {
						fnet.PartitionFor(0, 3)
					}
					return nil
				})
				fnet.Heal(0)
				if err := errors.Join(err, srv.Shutdown()); err != nil {
					return err
				}
				doc, _ := srv.Document("doc")
				want := collab.CanonicalFingerprint(markerSet(edits, 0, 1, 2, 3, 4, 5, 6, 7))
				if got := collab.CanonicalFingerprint(doc); got != want || srv.Edits() != int64(8*edits) {
					return fmt.Errorf("collab: %016x with %d edits, closed form %016x with %d", got, srv.Edits(), want, 8*edits)
				}
				data[0].(*mergeable.Text).Insert(0, doc)
				return nil
			}, data
		},
	}
}

// Load sizing: two writers per document (every OK reply quotes the whole
// document, so documents stay short).
const loadClients, loadDocs = 512, 256

// Load is the sharded service under load: 512 clients, two per document
// over 256 documents, each prepend Size markers in wire batches of 8. The
// covering decisions pick the shard count (1, 2 or 4), whether the shard
// owning doc000 is SIGKILLed and resumed from its journal while the
// others write (after which of client 0's edits is decided too), and
// whether the inter-shard fabric injects faults (and then every drop and
// reset on it). Every schedule must finish with each document on its
// closed form and the edit count exact. The outcome digests the records
// doc000=<canonical fingerprint>; …: 5e6249988330ac42 at size 7.
func Load() Scenario {
	return Scenario{
		Name:          "load",
		Deterministic: true,
		Fingerprint:   canonicalText,
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			edits := max(env.Size(), 1)
			data := []mergeable.Mergeable{mergeable.NewText("")}
			docName := func(id int) string { return fmt.Sprintf("doc%03d", id%loadDocs) }
			initial := make(map[string]string, loadDocs)
			for d := 0; d < loadDocs; d++ {
				initial[docName(d)] = ""
			}
			opts := collab.ShardedOptions{Shards: []int{1, 2, 4}[env.DecideEach("load.shards", 3)]}
			kill := -1 // after client 0's edit kill, or never
			if env.DecideEach("load.kill", 2) == 1 {
				kill = env.Decide("load.kill.after", edits)
				dir, err := os.MkdirTemp("", "explore-load-")
				if err != nil {
					return failed(err), data
				}
				env.Defer(func() { os.RemoveAll(dir) })
				opts.Dir = dir
			}
			if env.DecideEach("load.faults", 2) == 1 {
				// A fault decision among n outcomes is asked with 4n
				// alternatives, the extra ones delivering, so a random walk
				// faults about one write in 24 and a drop costs one short
				// pipe timeout.
				fnet := faultnet.New(faultnet.Config{Decider: func(site string, n int) int {
					if pick := env.Decide(site, 4*n); pick < n {
						return pick
					}
					return 0
				}})
				opts.ShardNet = func(id int) collab.ListenDialer { return fnet.Listen(id, 64) }
				opts.PipeTimeout = 20 * time.Millisecond
			}
			l := memnet.Listen(1024)
			srv, err := collab.ServeSharded(l, initial, opts)
			if err != nil {
				return failed(err), data
			}
			env.Defer(func() { srv.Shutdown() }) // idempotent; normally already down
			return func(ctx *task.Ctx, data []mergeable.Mergeable) error {
				err := writeMarkers(l, loadClients, edits, 8, docName, collab.ClientOptions{
					RequestTimeout: 500 * time.Millisecond,
					Backoff:        collab.Backoff{Base: time.Millisecond, Cap: 10 * time.Millisecond, MaxAttempts: 20000},
				}, func(j int) error {
					if j != kill {
						return nil
					}
					victim := srv.RouteOf(docName(0))
					return errors.Join(srv.KillShard(victim), srv.ResumeShard(victim))
				})
				if err := errors.Join(err, srv.Shutdown()); err != nil {
					return err
				}
				if srv.Edits() != int64(loadClients*edits) {
					return fmt.Errorf("load: %d edits, want exactly %d", srv.Edits(), loadClients*edits)
				}
				var sb strings.Builder
				for d, name := range srv.Names() {
					doc, _ := srv.Document(name)
					got, want := collab.CanonicalFingerprint(doc), collab.CanonicalFingerprint(markerSet(edits, d, d+loadDocs))
					if got != want {
						return fmt.Errorf("load: document %s is %016x, closed form %016x", name, got, want)
					}
					fmt.Fprintf(&sb, "%s=%016x;", name, got)
				}
				data[0].(*mergeable.Text).Insert(0, sb.String())
				return nil
			}, data
		},
	}
}

// memDiskBound bounds the mem scenario's journal under -segment-bytes
// 4096 -retain-ckpts 2: segments, rotation siblings, two checkpoints.
const memDiskBound = 6*4096 + 64<<10

// memWorkload is the compressed endurance workload over a list, a text, a
// counter and a set. Even waves churn the sequences (each insert paired
// with a delete) and drain through MergeAll; odd waves apply commuting
// counter and set effects and drain through MergeAny, so picks are
// explored while the outcome stays pick-order-free. The root clamps the
// sequences and set elements repeat modulo 251, so the only unbounded
// growth is history: op logs in memory, WAL segments and checkpoints on
// disk. onWave (may be nil) checks the root after each wave.
func memWorkload(waves int, onWave func(wave int, data []mergeable.Mergeable) error) task.Func {
	return func(ctx *task.Ctx, data []mergeable.Mergeable) error {
		for wave := 0; wave < waves; wave++ {
			churn := wave%2 == 0
			for c := 0; c < 3; c++ {
				slot := wave*3 + c
				next := rand.New(rand.NewSource(int64(slot))).Intn
				ctx.Spawn(func(_ *task.Ctx, data []mergeable.Mergeable) error {
					l, tx := data[0].(*mergeable.List[int]), data[1].(*mergeable.Text)
					cnt, set := data[2].(*mergeable.Counter), data[3].(*mergeable.Set[int])
					for i := 0; churn && i < 16; i++ {
						l.Insert(next(l.Len()+1), next(1000))
						l.Delete(next(l.Len()))
						tx.Insert(next(tx.Len()+1), string(rune('a'+next(26))))
						tx.Delete(next(tx.Len()), 1)
						cnt.Add(int64(next(100) - 50))
					}
					for i := 0; !churn && i < 8; i++ {
						cnt.Add(1 << uint((slot+i)%60))
						set.Add((slot*8 + i) % 251)
					}
					return nil
				}, data...)
			}
			if churn {
				if err := ctx.MergeAll(); err != nil {
					return err
				}
			}
			for c := 0; !churn && c < 3; c++ {
				if _, err := ctx.MergeAny(); err != nil {
					return err
				}
			}
			if l := data[0].(*mergeable.List[int]); l.Len() > 96 {
				l.DeleteN(96, l.Len()-96)
			}
			if tx := data[1].(*mergeable.Text); tx.Len() > 96 {
				tx.Delete(96, tx.Len()-96)
			}
			if onWave != nil {
				if err := onWave(wave, data); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func memData() []mergeable.Mergeable {
	return []mergeable.Mergeable{mergeable.NewList(1, 2, 3, 4), mergeable.NewText("mem"), mergeable.NewCounter(0), mergeable.NewSet[int]()}
}

// postGCHeap forces a collection and returns the live heap in bytes.
func postGCHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// dirBytes sums the sizes of dir's entries: a journal's disk footprint.
// A directory that cannot be read holds nothing yet.
func dirBytes(dir string) (total int64) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// Mem is the bounded-memory scenario: 16 × Size waves of the endurance
// workload with eager history GC. Each schedule must end on the
// fingerprint of an unbounded run (GC off), retain in its op logs at most
// a quarter of the operations they committed, and end with a post-GC heap
// within twice the heap a quarter of the way in, plus 32 MiB. Journaled —
// under -crash with -segment-bytes 4096 -retain-ckpts 2 — the journal
// must stay under memDiskBound after every wave and rotate at least once;
// the crash check then verifies the sealed journal and replays it onto
// the same fingerprint.
func Mem() Scenario {
	// refs caches, per wave count, the fingerprint of the unbounded run
	// (GC off, no journal) that every bounded run must reproduce.
	var refs sync.Map
	return Scenario{
		Name:          "mem",
		Deterministic: true,
		Build: func(env *Env) (task.Func, []mergeable.Mergeable) {
			waves := 16 * max(env.Size(), 1)
			want, ok := refs.Load(waves)
			if !ok {
				ref := memData()
				if err := task.RunWith(task.RunConfig{History: task.HistoryGC{Disable: true}}, memWorkload(waves, nil), ref...); err != nil {
					return failed(err), ref
				}
				want, _ = refs.LoadOrStore(waves, Fingerprint(ref...))
			}
			dir := env.JournalDir()
			var heap uint64
			return memWorkload(waves, func(wave int, data []mergeable.Mergeable) error {
				if dir != "" {
					if n := dirBytes(dir); n > memDiskBound {
						return fmt.Errorf("mem: wave %d: journal holds %d bytes, bound %d", wave, n, memDiskBound)
					}
				}
				if wave == waves/4 {
					heap = postGCHeap()
				}
				if wave < waves-1 {
					return nil
				}
				retained, committed := 0, 0
				for _, m := range data {
					if l, ok := m.(interface{ Log() *mergeable.Log }); ok {
						retained += l.Log().RetainedLen()
						committed += l.Log().CommittedLen()
					}
				}
				segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")) // rotated segments; the pattern is valid
				switch last := postGCHeap(); {
				case Fingerprint(data...) != want.(uint64):
					return fmt.Errorf("mem: bounded run gave %016x, unbounded run %016x", Fingerprint(data...), want)
				case retained*4 > committed:
					return fmt.Errorf("mem: op logs retain %d of %d committed ops, want at most a quarter", retained, committed)
				case last > 2*heap+32<<20:
					return fmt.Errorf("mem: post-GC heap grew from %d to %d bytes", heap, last)
				case dir != "" && len(segs) == 0:
					return fmt.Errorf("mem: the journal never rotated; run with -segment-bytes 4096")
				}
				return nil
			}), memData()
		},
	}
}
