package netsim

import (
	"fmt"
	"testing"

	"repro/internal/mergeable"
)

// The string-building fingerprints the streaming ones in result.go
// replaced, kept as their oracle.

func fingerprintTracesOracle(traces [][]uint64) uint64 {
	fps := make([]uint64, 0, len(traces))
	for id, tr := range traces {
		s := fmt.Sprintf("host%d:", id)
		for _, d := range tr {
			s += fmt.Sprintf("%x,", d)
		}
		fps = append(fps, mergeable.FingerprintString(s))
	}
	return mergeable.CombineFingerprints(fps...)
}

func traceMultisetFingerprintOracle(traces [][]uint64) uint64 {
	fps := make([]uint64, 0, len(traces))
	for id, tr := range traces {
		var sum uint64
		for _, d := range tr {
			sum += mergeable.FingerprintString(fmt.Sprintf("h%d/%x", id, d))
		}
		fps = append(fps, sum)
	}
	return mergeable.CombineFingerprints(fps...)
}

// TestStreamingFingerprintsMatchStringOracle: every engine × both routings
// × a few seeds, plus the shapes no run produces — no hosts, silent hosts,
// digests at both ends of the range.
func TestStreamingFingerprintsMatchStringOracle(t *testing.T) {
	check := func(name string, r Result) {
		t.Helper()
		if got, want := fingerprintTraces(r.Traces), fingerprintTracesOracle(r.Traces); got != want {
			t.Errorf("%s: fingerprintTraces %#x, string oracle %#x", name, got, want)
		}
		if got, want := r.TraceMultisetFingerprint(), traceMultisetFingerprintOracle(r.Traces); got != want {
			t.Errorf("%s: TraceMultisetFingerprint %#x, string oracle %#x", name, got, want)
		}
	}
	for _, e := range AllEngines() {
		for _, routing := range []Routing{RouteHash, RouteRing} {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s routing %d seed %d", e.Name, routing, seed)
				// Twelve hosts: host ids of one and of two digits.
				r, err := e.Run(Config{Hosts: 12, Messages: 24, TTL: 6, Routing: routing, Seed: seed})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want := fingerprintTracesOracle(r.Traces); r.Fingerprint != want {
					t.Errorf("%s: Result.Fingerprint %#x, string oracle %#x", name, r.Fingerprint, want)
				}
				check(name, r)
			}
		}
	}
	check("no hosts", Result{})
	check("edge digests", Result{Traces: [][]uint64{{}, {0, 1, 0xf, 0x10, 1<<64 - 1}, nil, {1 << 63}, {}, {}, {}, {}, {}, {}, {7}}})
}
