// Stencil applies Spawn & Merge to the scientific-computing use case the
// paper's conclusion targets ("reason about the generality and
// scalability of our approach for further interesting use cases like
// scientific computing"): Jacobi relaxation of the 1-D heat equation with
// domain decomposition.
//
// The rod is split into partitions, one task per partition. Each
// iteration, every task recomputes its cells from its copy of the full
// grid (it only needs its neighbors' halo cells) and writes its partition
// back; Sync merges the writes — disjoint cell sets, so the merges are
// conflict-free — and refreshes the halos. MergeAll keeps the iterations
// in deterministic lockstep, so the parallel solver converges through
// exactly the sequential solver's states, which the example verifies.
//
//	go run ./examples/stencil [-cells 64] [-parts 4] [-iters 200]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro"
)

// jacobiStep computes the next value of cell i from the previous grid.
func jacobiStep(prev []float64, i int) float64 {
	if i == 0 || i == len(prev)-1 {
		return prev[i] // fixed boundary temperatures
	}
	return (prev[i-1] + prev[i+1]) / 2
}

// sequential runs the reference solver.
func sequential(grid []float64, iters int) []float64 {
	cur := append([]float64(nil), grid...)
	next := make([]float64, len(cur))
	for it := 0; it < iters; it++ {
		for i := range cur {
			next[i] = jacobiStep(cur, i)
		}
		cur, next = next, cur
	}
	return cur
}

// parallel runs the Spawn & Merge solver: one task per partition, two
// Syncs per Jacobi iteration. The double Sync is the lockstep-barrier
// idiom: a task resumed from its first (write-delivering) Sync has only
// seen the writes of partitions merged before it in that round; the
// second, empty Sync refreshes it with the complete round — after which
// every partition sees the identical post-iteration grid.
func parallel(grid []float64, parts, iters int) ([]float64, error) {
	// The whole grid is copied to every partition twice per iteration (the
	// double Sync); the list's copy-on-write storage turns that dominant
	// copy cost into structural sharing.
	cells := repro.NewList(grid...)
	err := repro.Run(func(ctx *repro.Ctx, data []repro.Mergeable) error {
		n := len(grid)
		for p := 0; p < parts; p++ {
			lo := p * n / parts
			hi := (p + 1) * n / parts
			ctx.Spawn(func(ctx *repro.Ctx, data []repro.Mergeable) error {
				g := data[0].(*repro.List[float64])
				for it := 0; it < iters; it++ {
					prev := g.Values() // complete previous-iteration grid
					for i := lo; i < hi; i++ {
						if v := jacobiStep(prev, i); v != prev[i] {
							g.Set(i, v)
						}
					}
					if err := ctx.Sync(); err != nil { // deliver writes
						return err
					}
					if err := ctx.Sync(); err != nil { // barrier: see the full round
						return err
					}
				}
				return nil
			}, data[0])
		}
		// Two MergeAll rounds per iteration plus one collecting completions.
		for r := 0; r <= 2*iters; r++ {
			if err := ctx.MergeAll(); err != nil {
				return err
			}
		}
		return nil
	}, cells)
	return cells.Values(), err
}

func main() {
	ncells := flag.Int("cells", 64, "grid cells")
	parts := flag.Int("parts", 4, "partitions (tasks)")
	iters := flag.Int("iters", 200, "Jacobi iterations")
	flag.Parse()

	grid := make([]float64, *ncells)
	grid[0], grid[*ncells-1] = 100, 0 // hot left end, cold right end

	want := sequential(grid, *iters)
	got, err := parallel(grid, *parts, *iters)
	if err != nil {
		log.Fatal(err)
	}

	var maxDiff float64
	for i := range want {
		if d := math.Abs(want[i] - got[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("heat equation: %d cells, %d partitions, %d iterations\n", *ncells, *parts, *iters)
	fmt.Printf("  T[0]=%.1f  T[mid]=%.2f  T[end]=%.1f\n", got[0], got[*ncells/2], got[*ncells-1])
	fmt.Printf("  max |parallel - sequential| = %g\n", maxDiff)
	if maxDiff != 0 {
		log.Fatal("parallel solver diverged from the sequential reference")
	}
	fmt.Println("  bit-identical to the sequential solver — lockstep determinism")

	// And identical across repeated parallel runs, of course.
	again, err := parallel(grid, *parts, *iters)
	if err != nil {
		log.Fatal(err)
	}
	for i := range got {
		if got[i] != again[i] {
			log.Fatalf("parallel runs diverged at cell %d", i)
		}
	}
	fmt.Println("  repeated parallel runs identical")
}
