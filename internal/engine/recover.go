package engine

import (
	"context"
	"fmt"
	"runtime/debug"
)

// PanicError is a panic recovered from a worker task, converted into an
// ordinary batch error. Long-lived serving processes fan untrusted
// evaluation requests across the pool, and one poisoned design point
// must fail its batch — with enough context to find it — rather than
// kill the process. Index is the point index the task was evaluating
// (-1 when unknown); for block walks Lo/Hi carry the block's index
// range instead. Stack is the panicking goroutine's stack at recovery.
type PanicError struct {
	Index  int
	Lo, Hi int
	Value  any
	Stack  []byte
}

func (e *PanicError) Error() string {
	if e.Lo != e.Hi {
		return fmt.Sprintf("engine: panic in block [%d,%d): %v\n%s", e.Lo, e.Hi, e.Value, e.Stack)
	}
	return fmt.Sprintf("engine: panic at point %d: %v\n%s", e.Index, e.Value, e.Stack)
}

// safeCall invokes one point task with panic recovery: a panic becomes a
// *PanicError carrying the point index and stack.
func safeCall[T, S any](ctx context.Context, i int, scratch S, fn func(ctx context.Context, i int, scratch S) (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Lo: i, Hi: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i, scratch)
}

// safeBlock invokes one block walk with panic recovery: a panic becomes
// a *PanicError carrying the block's index range and stack.
func safeBlock(ctx context.Context, lo, hi int, tick func(), fn func(ctx context.Context, lo, hi int, tick func()) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: -1, Lo: lo, Hi: hi, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, lo, hi, tick)
}

// safeScratch invokes a scratch constructor with panic recovery.
func safeScratch[S any](newScratch func() (S, error)) (s S, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	return newScratch()
}
