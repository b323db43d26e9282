package runsafe

import (
	"errors"
	"strings"
	"testing"
)

func TestRunConvertsPanic(t *testing.T) {
	err := Run(func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("panic value %v, stack %d bytes", pe.Value, len(pe.Stack))
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

func TestRunPassesThrough(t *testing.T) {
	if err := Run(func() error { return nil }); err != nil {
		t.Fatalf("err = %v", err)
	}
	want := errors.New("plain")
	if err := Run(func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}
