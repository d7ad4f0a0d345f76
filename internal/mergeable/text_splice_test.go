package mergeable

import (
	"math/rand"
	"testing"

	"repro/internal/ot"
)

// randTextOp draws a text operation for a buffer of n runes: mostly valid,
// sometimes out of range on either side, with payloads that include
// multi-byte runes and invalid UTF-8 (each bad byte must decode to one
// U+FFFD, exactly as []rune(s) does).
func randTextOp(r *rand.Rand, n int) ot.Op {
	payloads := []string{"a", "xyz", "é", "日本", "\xff", "a\xc0b", "\xe2\x82", "", "0123456789abcdef"}
	pos := r.Intn(n + 1)
	switch r.Intn(10) {
	case 0:
		pos = n + 1 + r.Intn(3)
	case 1:
		pos = -1 - r.Intn(3)
	}
	if r.Intn(2) == 0 {
		return ot.TextInsert{Pos: pos, Text: payloads[r.Intn(len(payloads))]}
	}
	k := 0
	if n-pos > 0 {
		k = r.Intn(n - pos + 1)
	}
	switch r.Intn(10) {
	case 0:
		k = n + 1
	case 1:
		k = -1
	}
	return ot.TextDelete{Pos: pos, N: k}
}

// applyBoth applies op to the in-place Text and to the copying oracle and
// demands the same verdict, the same error text and the same runes.
func applyBoth(t *testing.T, txt *Text, model []rune, op ot.Op) []rune {
	t.Helper()
	want, werr := ot.ApplyText(model, op)
	gerr := txt.ApplyRemote([]ot.Op{op})
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%v on %q: in-place err %v, oracle err %v", op, string(model), gerr, werr)
	}
	if got := string(txt.runes); got != string(want) {
		t.Fatalf("%v on %q: in-place %q, oracle %q", op, string(model), got, string(want))
	}
	return want
}

// TestTextSpliceMatchesApplyText is the differential test for the in-place
// buffer: random op sequences — including invalid UTF-8 and out-of-range
// operations, which must fail identically and leave the buffer untouched —
// run through Text and through ot.ApplyText side by side. Halfway through,
// the Text is cloned and a third copy adopts it; then all three diverge
// with different ops, so any aliasing of the spliced buffer between a
// source and its clone (in either direction) corrupts one of the models.
func TestTextSpliceMatchesApplyText(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := NewText("seed-日本")
		model := []rune("seed-日本")
		for i := 0; i < 40; i++ {
			model = applyBoth(t, src, model, randTextOp(r, len(model)))
		}
		clone := src.CloneValue().(*Text)
		adopted := NewText("a longer buffer whose capacity AdoptFrom reuses, not aliases")
		if err := adopted.AdoptFrom(src); err != nil {
			t.Fatal(err)
		}
		texts := []*Text{src, clone, adopted}
		models := [][]rune{model, append([]rune(nil), model...), append([]rune(nil), model...)}
		for i := 0; i < 60; i++ {
			k := r.Intn(len(texts))
			models[k] = applyBoth(t, texts[k], models[k], randTextOp(r, len(models[k])))
		}
		for k, txt := range texts {
			if got := string(txt.runes); got != string(models[k]) {
				t.Fatalf("seed %d: copy %d drifted to %q, model %q — a buffer is shared", seed, k, got, string(models[k]))
			}
		}
		// A foreign operation kind is refused by both, with the same words.
		applyBoth(t, src, models[0], ot.SeqDelete{Pos: 0, N: 1})
	}
}

// TestTextAdoptReusesCapacity pins the allocation win: refreshing a copy
// whose buffer is already large enough allocates nothing.
func TestTextAdoptReusesCapacity(t *testing.T) {
	src := NewText("0123456789abcdef0123456789abcdef")
	dst := src.CloneValue().(*Text)
	if n := testing.AllocsPerRun(100, func() {
		if err := dst.AdoptFrom(src); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AdoptFrom into a large-enough buffer allocates %v times, want 0", n)
	}
}
