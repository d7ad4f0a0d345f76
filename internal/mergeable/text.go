package mergeable

import (
	"fmt"
	"unicode/utf8"

	"repro/internal/ot"
)

// Text is a mergeable text buffer — the collaborative-editing structure
// operational transformation was invented for. Positions address runes.
//
// A Text owns its buffer: CloneValue and AdoptFrom copy, so nothing ever
// aliases runes and every edit splices it in place, reusing capacity.
type Text struct {
	log   Log
	runes []rune
	// fp caches the running FNV-1a state over "text:" + the buffer's UTF-8
	// rendering; appends at the end extend it, everything else invalidates.
	// Text has no separators, so fp.count is unused (fold is not used — the
	// hash state is extended directly).
	fp fpCache
}

// NewText returns a mergeable text buffer initialized with s.
func NewText(s string) *Text {
	return &Text{runes: []rune(s)}
}

// Log implements Mergeable.
func (t *Text) Log() *Log { return &t.log }

// Len returns the length in runes.
func (t *Text) Len() int {
	t.log.ensureUsable()
	return len(t.runes)
}

// String returns the buffer contents.
func (t *Text) String() string {
	t.log.ensureUsable()
	return string(t.runes)
}

// Insert inserts s before rune position pos.
func (t *Text) Insert(pos int, s string) {
	t.log.ensureUsable()
	if pos < 0 || pos > len(t.runes) {
		panic(fmt.Sprintf("mergeable: Text.Insert position %d out of range [0,%d]", pos, len(t.runes)))
	}
	if s == "" {
		return
	}
	op := ot.TextInsert{Pos: pos, Text: s}
	if pos == len(t.runes) && t.fp.ok {
		t.fp.h = fnvFoldString(t.fp.h, s)
	} else {
		t.fp.invalidate()
	}
	t.mustApply(op)
	t.log.Record(op)
}

// Append adds s to the end of the buffer.
func (t *Text) Append(s string) { t.Insert(len(t.runes), s) }

// Delete removes n runes starting at position pos.
func (t *Text) Delete(pos, n int) {
	t.log.ensureUsable()
	if n < 0 || pos < 0 || pos+n > len(t.runes) {
		panic(fmt.Sprintf("mergeable: Text.Delete range [%d,%d) out of range [0,%d]", pos, pos+n, len(t.runes)))
	}
	if n == 0 {
		return
	}
	op := ot.TextDelete{Pos: pos, N: n}
	t.fp.invalidate()
	t.mustApply(op)
	t.log.Record(op)
}

func (t *Text) mustApply(op ot.Op) {
	if err := t.splice(op); err != nil {
		panic(err)
	}
}

// splice applies one text operation to the buffer in place. It accepts,
// rejects and decodes exactly like ot.ApplyText, which stays the oracle of
// the differential test.
func (t *Text) splice(op ot.Op) error {
	switch v := op.(type) {
	case ot.TextInsert:
		if v.Pos < 0 || v.Pos > len(t.runes) {
			return fmt.Errorf("ot: %s out of range for length %d", v, len(t.runes))
		}
		n, old := utf8.RuneCountInString(v.Text), len(t.runes)
		t.runes = append(t.runes, make([]rune, n)...)
		copy(t.runes[v.Pos+n:], t.runes[v.Pos:old])
		i := v.Pos
		for _, r := range v.Text {
			t.runes[i] = r
			i++
		}
		return nil
	case ot.TextDelete:
		if v.N < 0 || v.Pos < 0 || v.Pos+v.N > len(t.runes) {
			return fmt.Errorf("ot: %s out of range for length %d", v, len(t.runes))
		}
		t.runes = append(t.runes[:v.Pos], t.runes[v.Pos+v.N:]...)
		return nil
	}
	return fmt.Errorf("ot: %s is not a text operation", op.Kind())
}

// CloneValue implements Mergeable.
func (t *Text) CloneValue() Mergeable {
	return &Text{runes: append([]rune(nil), t.runes...), fp: t.fp}
}

// ApplyRemote implements Mergeable.
func (t *Text) ApplyRemote(ops []ot.Op) error {
	for _, op := range ops {
		v, isAppend := op.(ot.TextInsert)
		isAppend = isAppend && v.Pos == len(t.runes) && t.fp.ok
		if err := t.splice(op); err != nil {
			return err
		}
		if isAppend {
			t.fp.h = fnvFoldString(t.fp.h, v.Text)
		} else {
			t.fp.invalidate()
		}
	}
	return nil
}

// AdoptFrom implements Mergeable.
func (t *Text) AdoptFrom(src Mergeable) error {
	s, ok := src.(*Text)
	if !ok {
		return adoptErr(t, src)
	}
	t.runes = append(t.runes[:0], s.runes...)
	t.fp = s.fp
	return nil
}

// Fingerprint implements Mergeable. O(1) for append-only histories via the
// running hash.
func (t *Text) Fingerprint() uint64 {
	if !t.fp.ok {
		h := fnvFoldString(fnvOffset64, "text:")
		h = fnvFoldString(h, string(t.runes))
		t.fp = fpCache{h: h, ok: true}
	}
	return t.fp.h
}
