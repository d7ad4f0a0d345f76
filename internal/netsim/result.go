package netsim

import (
	"hash/fnv"
	"strconv"
	"time"

	"repro/internal/mergeable"
)

// Result captures the outcome of one simulation run. Two runs of a
// deterministic engine must produce identical Fingerprints; the elapsed
// time feeds the Figure 3 measurements.
type Result struct {
	Engine      string
	Config      Config
	Hops        int64         // processed hops (always Config.TotalHops on success)
	Elapsed     time.Duration // wall time of the simulation proper
	Fingerprint uint64        // order-sensitive hash of every host's processing trace
	Traces      [][]uint64    // per host: digests in processing order
	// Rounds counts the MergeAll cycles a Spawn & Merge engine needed
	// (zero for the conventional engines). The paper attributes the
	// det-vs-nondet gap to hash routing clustering several messages on
	// one host, "processed in consecutive simulation cycles" — visible
	// here as a higher round count for the same hop count.
	Rounds int64
}

// fingerprintTraces folds the per-host processing traces into one
// order-sensitive hash: per host FNV-1a (mergeable.FingerprintString's
// hash) of "host<id>:" followed by "<digest in hex>," for every digest,
// written to the hash as produced — building the string first was quadratic
// in the trace length and most of what a run allocated. The trace — which
// messages a host processed, in which order — is precisely where the
// conventional non-deterministic implementation shows run-to-run variation.
func fingerprintTraces(traces [][]uint64) uint64 {
	fps := make([]uint64, 0, len(traces))
	h := fnv.New64a()
	buf := make([]byte, 0, 32)
	for id, tr := range traces {
		h.Reset()
		buf = strconv.AppendInt(append(buf[:0], "host"...), int64(id), 10)
		h.Write(append(buf, ':'))
		for _, d := range tr {
			h.Write(append(strconv.AppendUint(buf[:0], d, 16), ','))
		}
		fps = append(fps, h.Sum64())
	}
	return mergeable.CombineFingerprints(fps...)
}

// TraceMultisetFingerprint hashes the traces ignoring per-host processing
// order. All four engines must agree on it for ring routing (same
// messages traverse the same hosts), making it a strong cross-engine
// oracle even where processing order legitimately differs.
func (r Result) TraceMultisetFingerprint() uint64 {
	fps := make([]uint64, 0, len(r.Traces))
	h := fnv.New64a()
	buf := make([]byte, 0, 32)
	for id, tr := range r.Traces {
		buf = append(strconv.AppendInt(append(buf[:0], 'h'), int64(id), 10), '/')
		prefix := len(buf)
		var sum uint64
		for _, d := range tr {
			// Commutative fold per host of FNV-1a("h<id>/<digest in hex>"):
			// order-insensitive, host-sensitive.
			h.Reset()
			h.Write(strconv.AppendUint(buf[:prefix], d, 16))
			sum += h.Sum64()
		}
		fps = append(fps, sum)
	}
	return mergeable.CombineFingerprints(fps...)
}
