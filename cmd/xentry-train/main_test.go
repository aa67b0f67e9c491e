package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsNegativeSizes: a negative size is a usage error (exit 2),
// not a panic deep in collection or a model trained on nothing.
func TestRejectsNegativeSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-injections", "-60"},
		{"-fault-free", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote results: %q", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "non-negative") || !strings.Contains(stderr.String(), "-injections") {
			t.Errorf("%v: stderr lacks the error and usage: %q", args, stderr.String())
		}
	}
}

// TestBadFlagIsUsageError keeps flag parse failures at exit 2.
func TestBadFlagIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}
