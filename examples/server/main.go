// Server runs the paper's Listing 3: a key-value server whose root task
// owns the data, an accept task that blocks on incoming connections and
// Clones a sibling per connection, and connection tasks that Sync() after
// every request to merge their changes into the root. The root merges on
// a first-completed basis with MergeAny — the paper's explicit
// non-determinism for reacting to unpredictable clients — yet the store
// operations themselves remain race-free by construction.
//
// Networking runs over an in-memory transport (internal/memnet) so the
// example is hermetic; the task structure is identical to real TCP.
//
// With -metrics the server also exposes the runtime's observability
// endpoints over real HTTP — /debug/vars (expvar JSON) and /metrics
// (Prometheus text format) — fed by a span tracer on the whole task tree;
// -linger keeps the process (and the endpoints) up after the workload
// finishes, for interactive scraping.
//
// With -resilient the example instead runs the collaborative editor's
// resilient front door (internal/collab): flaky clients edit one shared
// document through a fault-injecting network, dropping connections
// mid-script and transparently reconnecting with RESUME; the final
// document carries every acked edit exactly once, and the run prints the
// session counters (resumes, replays, detaches) that prove the churn.
//
// With -shards the example runs the sharded document service: documents
// consistent-hash onto per-shard merge loops behind one routing front,
// clients push batched edits, and a new shard joins mid-traffic — the
// handoff is invisible to clients thanks to the epoch fence.
//
//	go run ./examples/server [-clients 4] [-requests 3]
//	go run ./examples/server -metrics 127.0.0.1:8321 -linger 60s
//	go run ./examples/server -resilient [-clients 6] [-requests 8]
//	go run ./examples/server -shards 2 [-clients 6] [-requests 16]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/collab"
	"repro/internal/faultnet"
	"repro/internal/memnet"
)

// accept is Listing 3's accept(): loop on the blocking Accept and clone a
// sibling task per connection. The clone inherits stale data copies and
// must Sync before touching them.
func accept(listener *memnet.Listener) repro.Func {
	return func(ctx *repro.Ctx, data []repro.Mergeable) error {
		for {
			socket, err := listener.Accept()
			if err != nil {
				return nil // listener closed: server shutting down
			}
			ctx.Clone(conn(socket))
		}
	}
}

// conn is Listing 3's conn(): refresh the inherited data with Sync, then
// serve requests, syncing after each one so the root sees the changes.
func conn(socket net.Conn) repro.Func {
	return func(ctx *repro.Ctx, data []repro.Mergeable) error {
		defer socket.Close()
		if err := ctx.Sync(); err != nil { // the clone's data is outdated
			return err
		}
		store := data[0].(*repro.Map[string, string])
		served := data[1].(*repro.Counter)
		r := bufio.NewReader(socket)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return nil // client hung up: task completes
			}
			reply := handle(store, strings.TrimSpace(line))
			served.Inc()
			if err := ctx.Sync(); err != nil { // merge this request's work
				fmt.Fprintf(socket, "ERR %v\n", err)
				return err
			}
			fmt.Fprintf(socket, "%s\n", reply)
		}
	}
}

// handle executes one request against the task's copy of the store.
func handle(store *repro.Map[string, string], req string) string {
	parts := strings.SplitN(req, " ", 3)
	switch parts[0] {
	case "SET":
		if len(parts) < 3 {
			return "ERR usage: SET key value"
		}
		store.Set(parts[1], parts[2])
		return "OK"
	case "GET":
		if len(parts) < 2 {
			return "ERR usage: GET key"
		}
		if v, ok := store.Get(parts[1]); ok {
			return v
		}
		return "(nil)"
	default:
		return "ERR unknown command"
	}
}

// shardedDemo runs the multi-node spine: documents consistent-hash onto
// per-shard single-writer merge loops behind one routing front, clients
// push batched edits, and mid-run a new shard joins — its doc ranges
// hand off via snapshot transfer behind the epoch fence while traffic
// keeps flowing. The run prints the final routing table, per-document
// fingerprints and the shard merge-latency quantiles.
func shardedDemo(shards, clients, edits int, seed int64) {
	initial := map[string]string{
		"alpha": "", "beta": "", "gamma": "", "delta": "", "epsilon": "",
	}
	listener := memnet.Listen(clients + 4)
	srv, err := collab.ServeSharded(listener, initial, collab.ShardedOptions{
		Shards: shards,
		Front:  collab.Options{Seed: seed},
	})
	if err != nil {
		log.Fatalf("serve sharded: %v", err)
	}
	names := srv.Names()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := collab.DialWith(listener, collab.ClientOptions{RequestTimeout: 5 * time.Second})
			if err != nil {
				log.Fatalf("client %d: %v", c, err)
			}
			defer cl.Close()
			if _, err := cl.Use(names[c%len(names)]); err != nil {
				log.Fatalf("client %d: use: %v", c, err)
			}
			for i := 0; i < edits; i++ {
				cl.QueueInsert(0, fmt.Sprintf("c%d-e%d;", c, i))
				if cl.Queued() >= 4 || i == edits-1 {
					if err := cl.Flush(); err != nil {
						log.Fatalf("client %d edit %d: %v", c, i, err)
					}
				}
			}
			if err := cl.Bye(); err != nil {
				log.Fatalf("client %d: bye: %v", c, err)
			}
		}(c)
	}

	// Live rebalance mid-traffic: shard N joins, takes over its ranges.
	time.Sleep(5 * time.Millisecond)
	if err := srv.AddShard(shards); err != nil {
		log.Fatalf("add shard: %v", err)
	}
	wg.Wait()
	if err := srv.Shutdown(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("routing table after shard %d joined (epoch %d):\n", shards, srv.Epoch())
	for _, name := range names {
		doc, _ := srv.Document(name)
		fmt.Printf("  %-8s -> shard %d  (%3d bytes, fingerprint %016x)\n",
			name, srv.RouteOf(name), len(doc), collab.CanonicalFingerprint(doc))
	}
	h := srv.MergeLatency()
	fmt.Printf("%d edits across %d shards; merge p50 %.0fµs p99 %.0fµs over %d batches\n",
		srv.Edits(), len(srv.ShardIDs()), h.Quantile(0.5)*1e6, h.Quantile(0.99)*1e6, h.Count())
	fmt.Printf("service counters: %s\n", srv.Stats())
}

// resilientDemo runs the collab front door under fire: every client edits
// the shared document through a seeded fault-injecting network, and on
// top of the injected drops and resets each client yanks its own
// connection once mid-script. The Client reconnects and RESUMEs on its
// own; the session's replay window dedupes any retried request, so the
// final document holds each edit exactly once.
func resilientDemo(clients, edits int, seed int64) {
	fnet := faultnet.New(faultnet.Config{Seed: seed, DropProb: 0.05, ResetProb: 0.02})
	listener := fnet.Listen(0, clients)
	srv, err := collab.ServeSharded(listener, map[string]string{"doc": ""}, collab.ShardedOptions{
		Front: collab.Options{Seed: seed},
	})
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := collab.DialWith(listener, collab.ClientOptions{
				RequestTimeout: 100 * time.Millisecond,
				Backoff:        collab.Backoff{Base: time.Millisecond, Cap: 20 * time.Millisecond, MaxAttempts: 500},
			})
			if err != nil {
				log.Fatalf("client %d: %v", c, err)
			}
			defer cl.Close()
			if _, err := cl.Use("doc"); err != nil {
				log.Fatalf("client %d: use: %v", c, err)
			}
			for i := 0; i < edits; i++ {
				if i == edits/2 {
					cl.Drop() // simulate a flaky client: kill the socket mid-script
				}
				if _, err := cl.Insert(0, fmt.Sprintf("c%d-e%d;", c, i)); err != nil {
					log.Fatalf("client %d edit %d: %v", c, i, err)
				}
			}
			if err := cl.Bye(); err != nil {
				log.Fatalf("client %d: bye: %v", c, err)
			}
		}(c)
	}
	wg.Wait()
	if err := srv.Shutdown(); err != nil {
		log.Fatal(err)
	}

	doc, _ := srv.Document("doc")
	fmt.Printf("final document (%d bytes, %d edits, canonical fingerprint %016x):\n  %s\n",
		len(doc), srv.Edits(), collab.CanonicalFingerprint(doc), doc)
	fmt.Printf("session counters: %s\n", srv.Stats())
	fmt.Printf("injected faults:  %s\n", fnet.Stats())
}

func main() {
	clients := flag.Int("clients", 4, "concurrent clients")
	requests := flag.Int("requests", 3, "SET requests per client")
	resilient := flag.Bool("resilient", false, "demo the collab front door: flaky clients reconnect+RESUME through injected faults")
	shards := flag.Int("shards", 0, "demo the sharded document service: route documents over this many shards with a live join mid-traffic")
	metricsAddr := flag.String("metrics", "", "serve /debug/vars and /metrics on this address")
	linger := flag.Duration("linger", 0, "keep the process (and metrics endpoints) alive this long after the workload")
	flag.Parse()

	if *resilient {
		resilientDemo(*clients, max(*requests, 8), 42)
		return
	}
	if *shards > 0 {
		shardedDemo(*shards, max(*clients, 6), max(*requests, 16), 42)
		return
	}

	var tracer *repro.Tracer
	if *metricsAddr != "" {
		tracer = repro.NewTracer()
		reg := repro.NewMetricsRegistry()
		reg.AddTracer("server", tracer)
		reg.Publish("spawnmerge")
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		go http.Serve(ln, reg.Handler("spawnmerge"))
		fmt.Printf("metrics on http://%s/metrics and /debug/vars\n", ln.Addr())
	}

	listener := memnet.Listen(*clients)
	store := repro.NewMap[string, string]()
	served := repro.NewCounter(0)

	// Drive the clients from plain goroutines — they are the outside
	// world, beyond the deterministic core.
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sock, err := listener.Dial()
			if err != nil {
				return
			}
			defer sock.Close()
			r := bufio.NewReader(sock)
			for i := 0; i < *requests; i++ {
				fmt.Fprintf(sock, "SET client%d-key%d value%d\n", c, i, i)
				if _, err := r.ReadString('\n'); err != nil {
					return
				}
			}
			fmt.Fprintf(sock, "GET client%d-key0\n", c)
			if reply, err := r.ReadString('\n'); err == nil {
				fmt.Printf("  client %d read back: %s", c, reply)
			}
		}(c)
	}
	go func() {
		wg.Wait()
		listener.Close() // all clients done: stop accepting
	}()

	err := repro.RunWith(repro.RunConfig{Obs: tracer}, func(ctx *repro.Ctx, data []repro.Mergeable) error {
		ctx.Spawn(accept(listener), data...)
		for {
			if _, err := ctx.MergeAny(); err != nil {
				if errors.Is(err, repro.ErrNothingToMerge) {
					return nil // accept task and all connections finished
				}
				return err
			}
		}
	}, store, served)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("served %d requests; final store (%d keys):\n", served.Value(), store.Len())
	for _, k := range store.Keys() {
		v, _ := store.Get(k)
		fmt.Printf("  %s = %s\n", k, v)
	}
	if tracer != nil {
		fmt.Printf("spans recorded: %d\n", tracer.SpanCount())
	}
	if *linger > 0 {
		fmt.Printf("lingering %v for scrapes...\n", *linger)
		time.Sleep(*linger)
	}
}
