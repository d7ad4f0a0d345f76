// Bank demonstrates the merge condition functions of Section II.D — the
// paper's rollback mechanism — on the enterprise workload its
// introduction motivates ("especially for enterprise applications results
// have to be reproducible"). Teller tasks post transfers against copies
// of the accounts; the parent accepts a merge only if no account would be
// overdrawn. Unlike transactional memory, nothing is ever rolled back
// because of write-write conflicts; a rollback happens exactly when the
// application's invariant says no.
//
// Data-modeling note: each balance is a mergeable *Counter*, not a map
// entry. Transfers are increments, increments commute, so concurrent
// transfers merge without losing updates. Storing balances as map values
// would give register semantics — concurrent read-modify-writes to the
// same account would resolve by merge order and lose money.
//
//	go run ./examples/bank
package main

import (
	"errors"
	"fmt"
	"log"

	"repro"
)

const (
	alice = iota
	bob
	carol
	naccounts
	journalIdx = naccounts
)

var names = [naccounts]string{"alice", "bob", "carol"}

// transfer returns a teller task body moving amount between two accounts.
func transfer(from, to int, amount int) repro.Func {
	return func(ctx *repro.Ctx, data []repro.Mergeable) error {
		data[from].(*repro.Counter).Add(-int64(amount))
		data[to].(*repro.Counter).Add(int64(amount))
		data[journalIdx].(*repro.List[string]).Append(
			fmt.Sprintf("%s -> %s: %d", names[from], names[to], amount))
		return nil
	}
}

func main() {
	data := make([]repro.Mergeable, 0, naccounts+1)
	for _, start := range []int64{100, 50, 10} {
		data = append(data, repro.NewCounter(start))
	}
	// The journal is append-only and copied to every teller; the list's
	// copy-on-write storage makes each copy O(1).
	journal := repro.NewList[string]()
	data = append(data, journal)

	noOverdraft := repro.WithCondition(func(preview []repro.Mergeable) bool {
		for i := 0; i < naccounts; i++ {
			if preview[i].(*repro.Counter).Value() < 0 {
				return false
			}
		}
		return true
	})

	err := repro.Run(func(ctx *repro.Ctx, d []repro.Mergeable) error {
		// Three tellers post transfers concurrently; the third would
		// overdraw carol and must be rolled back.
		t1 := ctx.Spawn(transfer(alice, bob, 30), d...)
		t2 := ctx.Spawn(transfer(bob, carol, 20), d...)
		t3 := ctx.Spawn(transfer(carol, alice, 500), d...)

		err := ctx.MergeAllFromSet([]*repro.Task{t1, t2, t3}, noOverdraft)
		if !errors.Is(err, repro.ErrMergeRejected) {
			return fmt.Errorf("expected exactly one rejected transfer, got %v", err)
		}
		for i, h := range []*repro.Task{t1, t2, t3} {
			status := "committed"
			if errors.Is(h.Err(), repro.ErrMergeRejected) {
				status = "ROLLED BACK (would overdraw)"
			}
			fmt.Printf("  transfer %d: %s\n", i+1, status)
		}
		return nil
	}, data...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("final balances:")
	var total int64
	for i := 0; i < naccounts; i++ {
		v := data[i].(*repro.Counter).Value()
		fmt.Printf("  %-6s %4d\n", names[i], v)
		total += v
	}
	fmt.Printf("  %-6s %4d (conserved)\n", "total", total)
	fmt.Println("journal (committed transfers only):")
	for _, line := range journal.Values() {
		fmt.Printf("  %s\n", line)
	}
	if total != 160 {
		log.Fatalf("money not conserved: %d", total)
	}
}
