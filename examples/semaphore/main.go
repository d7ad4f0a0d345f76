// Semaphore runs the constructive proof of Section IV.A: Dijkstra
// semaphores built from nothing but Spawn, Merge and Sync, driving the
// classic bounded-buffer producer/consumer exercise. It also reproduces
// the section's deadlock discussion — two workers acquiring two locks in
// opposite order deadlock in a semaphore system; the Spawn & Merge
// simulation detects the state (MergeAnyFromSet over an empty set) and
// reports it instead of hanging.
//
//	go run ./examples/semaphore
package main

import (
	"errors"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/mergeable"
	"repro/internal/semaphore"
	"repro/internal/task"
)

const (
	semSlots = 0 // free buffer slots (count 3)
	semItems = 1 // filled buffer slots (count 0)
	semMutex = 2 // buffer mutex (count 1)
)

func producerConsumer() {
	const items = 6
	// The buffer and sink cross a Spawn/Sync boundary on every semaphore
	// operation; their copy-on-write storage shares structure instead of
	// copying, and pushes, pops and appends stay on its fast paths.
	buf := repro.NewQueue[int]()
	out := repro.NewList[int]()

	producer := func(ctx *task.Ctx, sems *semaphore.Sems, data []mergeable.Mergeable) error {
		q := data[0].(*repro.Queue[int])
		for i := 0; i < items; i++ {
			if err := sems.Acquire(semSlots); err != nil {
				return err
			}
			if err := sems.Acquire(semMutex); err != nil {
				return err
			}
			q.Push(i)
			fmt.Printf("  produced %d\n", i)
			if err := sems.Release(semMutex); err != nil {
				return err
			}
			if err := sems.Release(semItems); err != nil {
				return err
			}
		}
		return nil
	}
	consumer := func(ctx *task.Ctx, sems *semaphore.Sems, data []mergeable.Mergeable) error {
		q := data[0].(*repro.Queue[int])
		sink := data[1].(*repro.List[int])
		for i := 0; i < items; i++ {
			if err := sems.Acquire(semItems); err != nil {
				return err
			}
			if err := sems.Acquire(semMutex); err != nil {
				return err
			}
			if v, ok := q.PopFront(); ok {
				sink.Append(v)
				fmt.Printf("  consumed %d\n", v)
			}
			if err := sems.Release(semMutex); err != nil {
				return err
			}
			if err := sems.Release(semSlots); err != nil {
				return err
			}
		}
		return nil
	}

	fmt.Println("bounded buffer (capacity 3) with semaphores made of Spawn/Merge/Sync:")
	if err := semaphore.Run([]int64{3, 0, 1}, []semaphore.Worker{producer, consumer}, buf, out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  transferred in order: %v\n\n", out.Values())
}

func deadlockDemo() {
	fmt.Println("two locks acquired in opposite order (the classic deadlock):")
	var aHolds, bHolds atomic.Bool
	workerA := func(ctx *task.Ctx, sems *semaphore.Sems, data []mergeable.Mergeable) error {
		if err := sems.Acquire(0); err != nil {
			return err
		}
		aHolds.Store(true)
		for !bHolds.Load() {
			time.Sleep(time.Millisecond)
		}
		return sems.Acquire(1)
	}
	workerB := func(ctx *task.Ctx, sems *semaphore.Sems, data []mergeable.Mergeable) error {
		if err := sems.Acquire(1); err != nil {
			return err
		}
		bHolds.Store(true)
		for !aHolds.Load() {
			time.Sleep(time.Millisecond)
		}
		return sems.Acquire(0)
	}
	err := semaphore.Run([]int64{1, 1}, []semaphore.Worker{workerA, workerB})
	if errors.Is(err, semaphore.ErrAllBlocked) {
		fmt.Println("  detected:", semaphore.ErrAllBlocked)
		fmt.Println("  (per §IV.B the simulation livelocks instead of deadlocking; we detect and stop)")
		return
	}
	log.Fatalf("expected ErrAllBlocked, got %v", err)
}

func main() {
	producerConsumer()
	deadlockDemo()
}
