// Quickstart runs the paper's Listing 1: a parent task and a spawned child
// append to the same logical list without any locking; the deterministic
// merge interleaves their operations the same way on every run.
//
// Compare with the mutex-based Listing 2 the paper shows: that version is
// longer, needs two mutexes, and its result depends on scheduling. This
// one cannot race and cannot deadlock.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

// f is the child task's body from Listing 1: it appends 5 to its copy of
// the list.
func f(ctx *repro.Ctx, data []repro.Mergeable) error {
	l := data[0].(*repro.List[int])
	l.Append(5)
	return nil
}

func runOnce() ([]int, error) {
	// A List, to match Listing 1 verbatim. Its CloneValue is O(1)
	// structural sharing (copy-on-write storage).
	list := repro.NewList(1, 2, 3)
	err := repro.Run(func(ctx *repro.Ctx, data []repro.Mergeable) error {
		l := data[0].(*repro.List[int])
		t := ctx.Spawn(f, l) // child gets a copy — no locks needed
		l.Append(4)          // parent appends concurrently
		return ctx.MergeAllFromSet([]*repro.Task{t})
	}, list)
	return list.Values(), err
}

func main() {
	fmt.Println("Listing 1: Spawn(f, list); list.Append(4); MergeAllFromSet(t)")
	var first []int
	for run := 1; run <= 5; run++ {
		got, err := runOnce()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  run %d: %v\n", run, got)
		if first == nil {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				log.Fatalf("non-deterministic result: %v vs %v", got, first)
			}
		}
	}
	fmt.Println("every run produced the same list — deterministic by construction")
}
