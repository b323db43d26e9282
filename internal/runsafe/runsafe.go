// Package runsafe supervises task execution for the long-running
// measurement pipeline: it converts a worker panic into a typed error, so
// one poisoned (benchmark, configuration) cell of a design-space sweep
// cannot take down the remaining thousands, and a panicking request
// cannot take down the daemon.
package runsafe

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a worker panic converted into an error: the recovered
// value plus the goroutine stack at the point of the panic.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Run executes fn with a recover() guard: a panic inside fn returns a
// *PanicError instead of unwinding the caller's goroutine. The supervised
// function's own error is passed through unchanged.
func Run(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}
