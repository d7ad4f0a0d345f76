// Netsim runs one network-simulation experiment from the paper's
// evaluation (Section III) on a chosen engine, printing the runtime,
// processed hops and the result fingerprint. With -detcheck N it repeats
// the run N times and reports whether the engine produced identical
// results — the paper's determinism claim as a command-line check.
//
//	go run ./cmd/netsim -engine spawnmerge-det -workload 1000
//	go run ./cmd/netsim -engine conventional-nondet -detcheck 5
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/netsim"
)

func main() {
	engine := flag.String("engine", "spawnmerge-det",
		"one of: conventional-nondet, conventional-det, spawnmerge-nondet, spawnmerge-det")
	hosts := flag.Int("hosts", 20, "simulated hosts (paper: 20)")
	messages := flag.Int("messages", 100, "initial messages (paper: 100)")
	ttl := flag.Int("ttl", 100, "hops per message (paper: 100)")
	workload := flag.Int("workload", 0, "SHA-1 iterations per hop (paper sweeps 0..10000)")
	seed := flag.Uint64("seed", 1, "payload seed")
	det := flag.Int("detcheck", 0, "if > 0, repeat the run N times and check result determinism")
	verify := flag.Bool("verify", false, "verify the result's hash chains against the abstract workload model")
	flag.Parse()

	cfg := netsim.Config{
		Hosts: *hosts, Messages: *messages, TTL: *ttl,
		Workload: *workload, Seed: *seed,
	}

	if *det > 0 {
		counts := map[uint64]int{}
		for i := 0; i < *det; i++ {
			r, err := netsim.RunEngine(*engine, cfg)
			if err != nil {
				log.Fatalf("run %d: %v", i, err)
			}
			counts[r.Fingerprint]++
		}
		if len(counts) > 1 {
			fmt.Printf("%s: NON-DETERMINISTIC: %d distinct outcomes over %d runs\n", *engine, len(counts), *det)
			os.Exit(1)
		}
		for fp := range counts {
			fmt.Printf("%s: deterministic: %d runs, fingerprint %016x\n", *engine, *det, fp)
		}
		return
	}

	r, err := netsim.RunEngine(*engine, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine:      %s\n", r.Engine)
	fmt.Printf("config:      %d hosts, %d messages, TTL %d, workload %d\n",
		cfg.Hosts, cfg.Messages, cfg.TTL, cfg.Workload)
	fmt.Printf("hops:        %d\n", r.Hops)
	if r.Rounds > 0 {
		fmt.Printf("rounds:      %d\n", r.Rounds)
	}
	fmt.Printf("time:        %v\n", r.Elapsed)
	fmt.Printf("fingerprint: %016x\n", r.Fingerprint)
	if *verify {
		vcfg := r.Config
		if err := netsim.VerifyTraceChains(r, vcfg); err != nil {
			log.Fatalf("verification FAILED: %v", err)
		}
		fmt.Println("verified:    every message's hash chain matches the abstract model")
	}
}
