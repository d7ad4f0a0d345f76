package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mergeable"
	"repro/internal/stats"
)

// segOptions returns test options with a WAL segment budget small enough
// that the acceptance workload rotates several times.
func segOptions() Options {
	opts := testOptions()
	opts.SegmentBytes = 512
	return opts
}

// walFiles lists the WAL segment file names in dir, ascending.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(segs))
	for i, s := range segs {
		names[i] = s.name
	}
	return names
}

// TestSegmentRotationBoundsDisk: a run with a segment budget rotates,
// keeps exactly one segment on disk, lands on the same fingerprint as the
// unrotated reference, verifies clean, and replays exactly on Resume.
func TestSegmentRotationBoundsDisk(t *testing.T) {
	refDir := t.TempDir()
	refData := anyData()
	if err := Run(refDir, testOptions(), anyWorkload, refData...); err != nil {
		t.Fatal(err)
	}
	want := fingerprintAll(refData)

	dir := t.TempDir()
	opts := segOptions()
	opts.Stats = stats.NewCounters()
	data := anyData()
	if err := Run(dir, opts, anyWorkload, data...); err != nil {
		t.Fatal(err)
	}
	if got := fingerprintAll(data); got != want {
		t.Fatalf("rotated run fingerprint %016x, want %016x", got, want)
	}
	rotations := opts.Stats.Get("compaction.wal.rotations")
	if rotations == 0 {
		t.Fatal("512-byte segment budget produced no rotations")
	}
	if got := opts.Stats.Get("compaction.wal.segments_deleted"); got != rotations {
		t.Errorf("segments_deleted = %d, want %d (one per rotation)", got, rotations)
	}
	if names := walFiles(t, dir); len(names) != 1 || names[0] == walName {
		t.Fatalf("disk holds segments %v, want exactly one rotated segment", names)
	}
	if err := Verify(dir); err != nil {
		t.Fatalf("Verify(rotated journal) = %v", err)
	}

	ropts := segOptions()
	ropts.Stats = stats.NewCounters()
	out, err := Resume(dir, ropts, anyWorkload)
	if err != nil {
		t.Fatalf("Resume(rotated journal) = %v", err)
	}
	if got := fingerprintAll(out); got != want {
		t.Fatalf("resumed fingerprint %016x, want %016x", got, want)
	}
	if got := ropts.Stats.Get("done_verified"); got != 1 {
		t.Errorf("done_verified = %d, want 1", got)
	}
	if got := ropts.Stats.Get("pick_replayed"); got != 9 {
		t.Errorf("pick_replayed = %d, want 9 (anchor must carry the superseded picks)", got)
	}
	if got := ropts.Stats.Get("pick_recorded"); got != 0 {
		t.Errorf("replay of a complete rotated journal recorded %d fresh picks", got)
	}
}

// TestSegmentRotationOrderExact: with the result being the pick order
// itself, replay through any number of rotations must be exact — the
// anchors must preserve per-path pick order, not just pick sets.
func TestSegmentRotationOrderExact(t *testing.T) {
	dir := t.TempDir()
	opts := segOptions()
	opts.SegmentBytes = 256
	data := orderData()
	if err := Run(dir, opts, orderWorkload, data...); err != nil {
		t.Fatal(err)
	}
	want := data[0].(*mergeable.List[int]).Values()

	for i := 0; i < 3; i++ {
		out, err := Resume(dir, segOptions(), orderWorkload)
		if err != nil {
			t.Fatalf("resume %d: %v", i, err)
		}
		got := out[0].(*mergeable.List[int]).Values()
		if len(got) != len(want) {
			t.Fatalf("resume %d: list %v, want %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("resume %d: list %v, want %v (pick order lost across rotation)", i, got, want)
			}
		}
	}
}

// TestSegmentCreateRefusesRotatedRun: Create must refuse a directory
// whose run has rotated past wal.log — a rotated segment is a run's
// history as much as the original file.
func TestSegmentCreateRefusesRotatedRun(t *testing.T) {
	dir := t.TempDir()
	if err := Run(dir, segOptions(), anyWorkload, anyData()...); err != nil {
		t.Fatal(err)
	}
	if names := walFiles(t, dir); len(names) != 1 || names[0] == walName {
		t.Fatalf("precondition: want one rotated segment, have %v", names)
	}
	if err := Run(dir, segOptions(), anyWorkload, anyData()...); err == nil {
		t.Fatal("second Run over a rotated journal succeeded")
	}
}

// TestSegmentTornRotationArtifact: a crash mid-rotation leaves a new
// segment without an intact anchor. Verify reports the tear read-only;
// recovery deletes the artifact, falls back to the previous segment, and
// the resume completes on the reference fingerprint.
func TestSegmentTornRotationArtifact(t *testing.T) {
	refData := anyData()
	refDir := t.TempDir()
	if err := Run(refDir, testOptions(), anyWorkload, refData...); err != nil {
		t.Fatal(err)
	}
	want := fingerprintAll(refData)

	for _, tc := range []struct {
		name string
		torn func(valid []byte) []byte
	}{
		{"half magic", func(valid []byte) []byte { return append([]byte(nil), valid[:len(walMagic)/2]...) }},
		{"magic only", func(valid []byte) []byte { return append([]byte(nil), valid[:len(walMagic)]...) }},
		{"magic plus partial anchor", func(valid []byte) []byte { return append([]byte(nil), valid[:len(walMagic)+11]...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := Run(dir, segOptions(), anyWorkload, anyData()...); err != nil {
				t.Fatal(err)
			}
			segs, err := listSegments(dir)
			if err != nil || len(segs) != 1 || segs[0].seg == 0 {
				t.Fatalf("precondition: want one rotated segment, have %v (err %v)", segs, err)
			}
			valid, err := os.ReadFile(segs[0].path)
			if err != nil {
				t.Fatal(err)
			}
			tornName := segFileName(segs[0].seg + 1)
			tornPath := filepath.Join(dir, tornName)
			if err := os.WriteFile(tornPath, tc.torn(valid), 0o644); err != nil {
				t.Fatal(err)
			}

			verr := Verify(dir)
			if !errors.Is(verr, ErrTornTail) {
				t.Fatalf("Verify(torn rotation) = %v, want ErrTornTail", verr)
			}
			if _, err := os.Stat(tornPath); err != nil {
				t.Fatalf("Verify deleted the artifact: %v (must be read-only)", err)
			}

			ropts := segOptions()
			ropts.Stats = stats.NewCounters()
			out, err := Resume(dir, ropts, anyWorkload)
			if err != nil {
				t.Fatalf("Resume(torn rotation) = %v", err)
			}
			if got := fingerprintAll(out); got != want {
				t.Fatalf("resumed fingerprint %016x, want %016x", got, want)
			}
			if got := ropts.Stats.Get("compaction.wal.torn_segment_dropped"); got != 1 {
				t.Errorf("torn_segment_dropped = %d, want 1", got)
			}
			if _, err := os.Stat(tornPath); !os.IsNotExist(err) {
				t.Errorf("recovery left the torn artifact %s on disk", tornName)
			}
		})
	}
}

// TestSegmentNoResurrection is the regression test for op resurrection: a
// stale segment that an interrupted rotation failed to delete must be
// ignored and removed, never merged back into the recovered state. The
// stale file is a complete wal.log from a DIFFERENT workload — if
// recovery read it, the resumed picks (and the fingerprint) would change.
func TestSegmentNoResurrection(t *testing.T) {
	// A full foreign journal whose wal.log will play the stale segment.
	staleDir := t.TempDir()
	if err := Run(staleDir, testOptions(), orderWorkload, orderData()...); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(filepath.Join(staleDir, walName))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := segOptions()
	data := anyData()
	if err := Run(dir, opts, anyWorkload, data...); err != nil {
		t.Fatal(err)
	}
	want := fingerprintAll(data)
	if names := walFiles(t, dir); len(names) != 1 || names[0] == walName {
		t.Fatalf("precondition: want one rotated segment, have %v", names)
	}
	// Simulate the delete that never happened: the stale wal.log sits
	// below the anchored rotated segment.
	if err := os.WriteFile(filepath.Join(dir, walName), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	ropts := segOptions()
	ropts.Stats = stats.NewCounters()
	out, err := Resume(dir, ropts, anyWorkload)
	if err != nil {
		t.Fatalf("Resume(stale segment present) = %v", err)
	}
	if got := fingerprintAll(out); got != want {
		t.Fatalf("resumed fingerprint %016x, want %016x — stale segment resurrected ops", got, want)
	}
	if got := ropts.Stats.Get("pick_replayed"); got != 9 {
		t.Errorf("pick_replayed = %d, want 9 (the anchor's picks, not the stale file's)", got)
	}
	if got := ropts.Stats.Get("compaction.wal.stale_segments_removed"); got != 1 {
		t.Errorf("stale_segments_removed = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, walName)); !os.IsNotExist(err) {
		t.Error("recovery left the stale wal.log on disk")
	}
}

// TestCrashSweepRotation: the acceptance crash sweep with rotation armed —
// the byte budgets land inside anchors, mid-rotation and around segment
// deletes, and every recovery must still land on the reference
// fingerprint.
func TestCrashSweepRotation(t *testing.T) {
	want, counters := journaledScenario(t, t.TempDir(), anyData, anyWorkload)
	dirB := t.TempDir()
	opts := segOptions()
	opts.Stats = stats.NewCounters()
	segData := anyData()
	if err := Run(dirB, opts, anyWorkload, segData...); err != nil {
		t.Fatal(err)
	}
	if got := fingerprintAll(segData); got != want {
		t.Fatalf("rotated reference fingerprint %016x, want %016x", got, want)
	}
	if opts.Stats.Get("compaction.wal.rotations") == 0 {
		t.Fatal("rotated reference run never rotated")
	}
	_ = counters
	crashSweepOpts(t, want, opts.Stats.Get("bytes_written"), sweepStride(), segOptions, anyData, anyWorkload)
}

// FuzzSegmentRecover feeds arbitrary bytes to recovery as a ROTATED
// segment, with and without a valid wal.log beneath it: recovery must
// never panic, every failure must classify, and whenever a valid seg-0
// journal is present recovery must succeed by falling back past any
// artifact the fuzzer produced.
func FuzzSegmentRecover(f *testing.F) {
	seedDir := f.TempDir()
	if err := Run(seedDir, segOptions(), anyWorkload, anyData()...); err != nil {
		f.Fatal(err)
	}
	segs, err := listSegments(seedDir)
	if err != nil || len(segs) != 1 {
		f.Fatalf("seed journal: segments %v, err %v", segs, err)
	}
	valid, err := os.ReadFile(segs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	plainDir := f.TempDir()
	if err := Run(plainDir, testOptions(), anyWorkload, anyData()...); err != nil {
		f.Fatal(err)
	}
	plain, err := os.ReadFile(filepath.Join(plainDir, walName))
	if err != nil {
		f.Fatal(err)
	}

	f.Add(valid, false)
	f.Add(valid, true)
	f.Add(valid[:len(valid)-3], false)         // torn tail after the anchor
	f.Add(valid[:len(walMagic)], true)         // mid-rotation artifact over a valid base
	f.Add(valid[:len(walMagic)/2], true)       // partial magic artifact
	f.Add([]byte{}, true)                      // empty artifact
	f.Add([]byte("SMJRNL\x00\x01junk"), false) // garbage record stream
	f.Add(plain, false)                        // seg-0 content in a rotated name
	flipped := append([]byte(nil), valid...)
	flipped[len(walMagic)+12] ^= 0xff
	f.Add(flipped, false)

	f.Fuzz(func(t *testing.T, b []byte, withBase bool) {
		dir := t.TempDir()
		if withBase {
			if err := os.WriteFile(filepath.Join(dir, walName), plain, 0o644); err != nil {
				t.Skip()
			}
		}
		if err := os.WriteFile(filepath.Join(dir, segFileName(1)), b, 0o644); err != nil {
			t.Skip()
		}
		if err := Verify(dir); err != nil && !classified(err) {
			t.Fatalf("Verify: unclassified error: %v", err)
		}
		j, err := Open(dir, segOptions())
		if err != nil {
			if !classified(err) {
				t.Fatalf("Open: unclassified error: %v", err)
			}
			return
		}
		if _, err := j.decodeInputs(); err != nil && !classified(err) {
			t.Fatalf("decodeInputs: unclassified error: %v", err)
		}
		j.Close()
		// Open truncated tails and dropped artifacts: a second pass must
		// see a recoverable directory again.
		if err := Verify(dir); err != nil && !classified(err) {
			t.Fatalf("re-Verify: unclassified error: %v", err)
		}
		if _, err := Open(dir, segOptions()); err != nil && !classified(err) {
			t.Fatalf("re-Open: unclassified error: %v", err)
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzSegmentRecover from real journal bytes. Skipped
// unless WRITE_FUZZ_CORPUS is set — rerun it after any WAL format change
// so the committed corpus keeps tracking real segment layouts:
//
//	WRITE_FUZZ_CORPUS=1 go test ./internal/journal -run TestWriteFuzzCorpus
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the committed corpus")
	}
	seedDir := t.TempDir()
	if err := Run(seedDir, segOptions(), anyWorkload, anyData()...); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(seedDir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("seed journal: segments %v, err %v", segs, err)
	}
	valid, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	plainDir := t.TempDir()
	if err := Run(plainDir, testOptions(), anyWorkload, anyData()...); err != nil {
		t.Fatal(err)
	}
	plain, err := os.ReadFile(filepath.Join(plainDir, walName))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(walMagic)+12] ^= 0xff

	entries := []struct {
		name     string
		b        []byte
		withBase bool
	}{
		{"anchored-segment", valid, false},
		{"anchored-segment-with-stale-base", valid, true},
		{"torn-tail-after-anchor", valid[:len(valid)-3], false},
		{"magic-only-artifact-over-base", valid[:len(walMagic)], true},
		{"partial-magic-artifact-over-base", valid[:len(walMagic)/2], true},
		{"empty-artifact-over-base", []byte{}, true},
		{"garbage-after-magic", []byte("SMJRNL\x00\x01junk"), false},
		{"plain-wal-in-rotated-name", plain, false},
		{"crc-bit-flip", flipped, false},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSegmentRecover")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nbool(%v)\n", e.b, e.withBase)
		if err := os.WriteFile(filepath.Join(dir, e.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", e.name, len(e.b))
	}
}
