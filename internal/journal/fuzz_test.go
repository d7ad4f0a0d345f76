package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// classified reports whether err is one of the journal's public failure
// classes. Recovery may fail, but only in vocabulary the caller can act
// on.
func classified(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTornTail) || errors.Is(err, ErrNoRun)
}

// FuzzJournalRecover feeds arbitrary bytes to recovery as a WAL: it must
// never panic, and every failure must classify as ErrCorrupt, ErrTornTail
// or ErrNoRun. A journal that opens must survive input decoding, script
// rebuilding and a re-verify of its (possibly tail-truncated) file.
func FuzzJournalRecover(f *testing.F) {
	// Seed with a real journal and characteristic damage to it.
	seedDir := f.TempDir()
	if err := Run(seedDir, testOptions(), anyWorkload, anyData()...); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(seedDir, walName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])  // torn tail
	f.Add(valid[:len(walMagic)]) // magic only
	f.Add([]byte{})
	f.Add([]byte("SMJRNL\x00\x01garbage after the magic"))
	flipped := append([]byte(nil), valid...)
	flipped[len(walMagic)+12] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), b, 0o644); err != nil {
			t.Skip()
		}
		if err := Verify(dir); err != nil && !classified(err) {
			t.Fatalf("Verify: unclassified error: %v", err)
		}
		j, err := Open(dir, testOptions())
		if err != nil {
			if !classified(err) {
				t.Fatalf("Open: unclassified error: %v", err)
			}
			return
		}
		// Recovery accepted the bytes: everything it exposes must be
		// usable without panicking.
		if _, err := j.decodeInputs(); err != nil && !classified(err) {
			t.Fatalf("decodeInputs: unclassified error: %v", err)
		}
		j.Close()
		// Open truncated any torn tail, so a second pass sees a clean file.
		if err := Verify(dir); err != nil && !classified(err) {
			t.Fatalf("re-Verify: unclassified error: %v", err)
		}
	})
}
