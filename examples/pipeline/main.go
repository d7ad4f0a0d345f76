// Pipeline demonstrates MergeAllFromSet on a staged computation — the
// paper's motivation for the FromSet variants: "useful when a task has a
// set of child tasks running and wants to wait and merge a subset of
// them". A three-stage text pipeline (tokenize → score → summarize) fans
// each stage out over worker tasks and merges exactly that stage's
// workers before starting the next, while an unrelated slow audit task
// keeps running until the end.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"repro"
)

var documents = []string{
	"the quick brown fox jumps over the lazy dog",
	"a deterministic program is a debuggable program",
	"merge early merge often and never hold a lock",
}

func main() {
	// The per-stage fan-out copies the append-only token and summary
	// streams to every worker; copy-on-write lists make that O(1).
	tokens := repro.NewList[string]()
	scores := repro.NewMap[string, int]()
	summary := repro.NewList[string]()
	audit := repro.NewCounter(0)

	err := repro.Run(func(ctx *repro.Ctx, data []repro.Mergeable) error {
		tk := data[0].(*repro.List[string])
		sc := data[1].(*repro.Map[string, int])
		sm := data[2].(*repro.List[string])

		// A slow, unrelated child runs across all stages; nothing waits
		// for it until the very end.
		auditTask := ctx.Spawn(func(ctx *repro.Ctx, data []repro.Mergeable) error {
			time.Sleep(30 * time.Millisecond)
			data[0].(*repro.Counter).Inc()
			return nil
		}, data[3])

		// Stage 1: tokenize each document in its own task.
		stage1 := make([]*repro.Task, len(documents))
		for i, doc := range documents {
			doc := doc
			stage1[i] = ctx.Spawn(func(ctx *repro.Ctx, data []repro.Mergeable) error {
				out := data[0].(*repro.List[string])
				out.Append(strings.Fields(doc)...)
				return nil
			}, tk)
		}
		if err := ctx.MergeAllFromSet(stage1); err != nil { // barrier: stage 1 only
			return err
		}

		// Stage 2: score token shards (word lengths) over the merged
		// token list.
		words := tk.Values()
		half := len(words) / 2
		shards := [][]string{words[:half], words[half:]}
		stage2 := make([]*repro.Task, len(shards))
		for i, shard := range shards {
			i, shard := i, shard
			stage2[i] = ctx.Spawn(func(ctx *repro.Ctx, data []repro.Mergeable) error {
				out := data[0].(*repro.Map[string, int])
				for _, w := range shard {
					out.Set(fmt.Sprintf("shard%d/%s", i, w), len(w))
				}
				return nil
			}, sc)
		}
		if err := ctx.MergeAllFromSet(stage2); err != nil {
			return err
		}

		// Stage 3: summarize (single task, needs all stage-2 output).
		stage3 := ctx.Spawn(func(ctx *repro.Ctx, data []repro.Mergeable) error {
			in := data[0].(*repro.Map[string, int])
			out := data[1].(*repro.List[string])
			longest, best := "", 0
			total := 0
			for _, k := range in.Keys() {
				v, _ := in.Get(k)
				total += v
				word := k[strings.Index(k, "/")+1:]
				if v > best || (v == best && word < longest) {
					longest, best = word, v
				}
			}
			out.Append(fmt.Sprintf("tokens: %d", in.Len()))
			out.Append(fmt.Sprintf("total letters: %d", total))
			out.Append(fmt.Sprintf("longest word: %s (%d)", longest, best))
			return nil
		}, sc, sm)
		if err := ctx.MergeAllFromSet([]*repro.Task{stage3}); err != nil {
			return err
		}

		// Finally collect the audit task (and anything else left).
		if err := ctx.MergeAllFromSet([]*repro.Task{auditTask}); err != nil {
			return err
		}
		return nil
	}, tokens, scores, summary, audit)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("pipeline summary:")
	for _, line := range summary.Values() {
		fmt.Printf("  %s\n", line)
	}
	fmt.Printf("audit passes: %d\n", audit.Value())

	// Deterministic? Sort-free check: re-run would be identical; here we
	// just show the merged token order is the deterministic stage-1 merge
	// order (document order, not completion order).
	first := tokens.Values()[0]
	if first != "the" {
		log.Fatalf("stage-1 merge order violated: first token %q", first)
	}
	sorted := append([]string(nil), tokens.Values()...)
	sort.Strings(sorted)
	fmt.Printf("%d tokens, first by merge order: %q, first alphabetically: %q\n",
		len(sorted), first, sorted[0])
}
