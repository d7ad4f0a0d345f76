package task

import (
	"errors"
	"fmt"
)

// Sentinel errors returned by the runtime. Callers match them with
// errors.Is.
var (
	// ErrAborted is returned from Sync (and recorded as a task's error)
	// when the parent marked the task externally aborted (Section II.F of
	// the paper). The task should unwind; its changes are discarded.
	ErrAborted = errors.New("task: externally aborted")

	// ErrMergeRejected is returned from Sync when the parent's merge
	// condition function rejected the task's changes. The changes were
	// discarded and the task's copies refreshed from the parent.
	ErrMergeRejected = errors.New("task: merge rejected by condition")

	// ErrNothingToMerge is returned by MergeAny and MergeAnyFromSet when
	// there is no live child to wait for. Per Section IV.B it never blocks
	// on an empty set — which is exactly why a simulated deadlock turns
	// into a livelock instead.
	ErrNothingToMerge = errors.New("task: no child task to merge")

	// ErrBadPick is returned by MergeAny and MergeAnyFromSet when the
	// run's Decider forced a pick the merge cannot honour: for
	// MergeAnyFromSet a child outside the set's unmerged members, for
	// MergeAny a child that is not live once every live child is waiting
	// to be merged (none is left running to clone it). Replaying a script
	// against a program that changed is the usual cause.
	ErrBadPick = errors.New("task: decider picked a child the merge cannot take")

	// ErrNotChild is returned when a merge names a task that is not a
	// child of the caller (the wait graph must remain a tree).
	ErrNotChild = errors.New("task: not a child of the calling task")

	// ErrRootSync is returned when the root task calls Sync; it has no
	// parent to merge with.
	ErrRootSync = errors.New("task: root task cannot Sync")
)

// PanicError wraps a panic value recovered from a task function. The task
// is treated as failed: its changes are discarded at merge time.
type PanicError struct {
	Value any
}

// Error implements error.
func (e PanicError) Error() string { return fmt.Sprintf("task: panic: %v", e.Value) }
