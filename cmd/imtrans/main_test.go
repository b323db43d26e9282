package main

import (
	"testing"

	"imtrans"
)

// TestErrorLine checks that every failed command prints with exactly one
// "imtrans: " prefix, whether the error comes from the imtrans package
// (which already starts with it) or from the CLI itself.
func TestErrorLine(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"facade", imtrans.SchemeSpec{Name: "paper", Config: imtrans.Config{TTEntries: 4097}}.Validate(),
			"imtrans: scheme: paper: tt_entries 4097 out of range [0, 4096]"},
		{"cli", run("plan", nil), "imtrans: plan wants one source file"},
		{"unknown command", run("nope", nil), `imtrans: unknown command "nope"`},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if got := errorLine(tc.err); got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}
}
