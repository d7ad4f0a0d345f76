package netsim

import (
	"math/rand"
	"testing"
)

// TestAllEnginesSatisfyTraceChains runs every engine — the paper's four
// and the channel baselines — through the hash-chain verifier: each must
// have processed every message exactly TTL times, at the model-determined
// hosts, with the model-determined payloads.
func TestAllEnginesSatisfyTraceChains(t *testing.T) {
	for _, e := range AllEngines() {
		for _, workload := range []int{0, 3} {
			cfg := testConfig(e.Routing, workload)
			r := runWithDeadline(t, e.Name, cfg)
			reCfg := cfg
			reCfg.Routing = e.Routing
			if err := VerifyTraceChains(r, reCfg); err != nil {
				t.Errorf("%s (l=%d): %v", e.Name, workload, err)
			}
		}
	}
}

// TestRandomConfigsVerify draws simulation configs from a fixed list of
// seeds over hosts 2–7, messages 4–15, TTL 2–9 and workload 0–3, and runs
// every engine on each: every result must pass VerifyTraceChains, and a
// deterministic engine must give the same fingerprint on a re-run.
func TestRandomConfigsVerify(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{Hosts: 2 + r.Intn(6), Messages: 4 + r.Intn(12), TTL: 2 + r.Intn(8), Workload: r.Intn(4), Seed: r.Uint64()}
		for _, e := range AllEngines() {
			cfg.Routing = e.Routing
			res := runWithDeadline(t, e.Name, cfg)
			if err := VerifyTraceChains(res, cfg); err != nil {
				t.Errorf("seed %d, %s %+v: %v", seed, e.Name, cfg, err)
			}
			if !e.DeterministicResults {
				continue
			}
			if again := runWithDeadline(t, e.Name, cfg); again.Fingerprint != res.Fingerprint {
				t.Errorf("seed %d, %s %+v: fingerprints %016x and %016x", seed, e.Name, cfg, res.Fingerprint, again.Fingerprint)
			}
		}
	}
}

// TestVerifyTraceChainsCatchesCorruption ensures the oracle actually
// detects wrong traces.
func TestVerifyTraceChainsCatchesCorruption(t *testing.T) {
	cfg := testConfig(RouteRing, 0)
	r := runWithDeadline(t, "spawnmerge-det", cfg)

	// Flip one digest.
	corrupted := r
	corrupted.Traces = make([][]uint64, len(r.Traces))
	for i, tr := range r.Traces {
		corrupted.Traces[i] = append([]uint64(nil), tr...)
	}
	corrupted.Traces[0][0] ^= 1
	if err := VerifyTraceChains(corrupted, cfg); err == nil {
		t.Error("corrupted digest not detected")
	}

	// Drop one entry.
	dropped := r
	dropped.Traces = make([][]uint64, len(r.Traces))
	for i, tr := range r.Traces {
		dropped.Traces[i] = append([]uint64(nil), tr...)
	}
	dropped.Traces[1] = dropped.Traces[1][1:]
	if err := VerifyTraceChains(dropped, cfg); err == nil {
		t.Error("dropped hop not detected")
	}

	// Duplicate one entry.
	duped := r
	duped.Traces = make([][]uint64, len(r.Traces))
	for i, tr := range r.Traces {
		duped.Traces[i] = append([]uint64(nil), tr...)
	}
	duped.Traces[2] = append(duped.Traces[2], duped.Traces[2][0])
	if err := VerifyTraceChains(duped, cfg); err == nil {
		t.Error("duplicated hop not detected")
	}

	// Wrong host count.
	short := r
	short.Traces = r.Traces[:1]
	if err := VerifyTraceChains(short, cfg); err == nil {
		t.Error("missing host trace not detected")
	}
}
