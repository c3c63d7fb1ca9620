package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cli"
)

// runF drives run() in-process, returning stdout, stderr, and the error.
func runF(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb strings.Builder
	err := run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func wantUsageError(t *testing.T, err error, fragment string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected usage error containing %q, got nil", fragment)
	}
	var ue cli.UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("expected usageError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not mention %q", err, fragment)
	}
}

func TestNegativeKnobsRejected(t *testing.T) {
	// These used to be swallowed silently: the study only rejected
	// samples < 1 deep inside the study, and a negative parallelism
	// quietly meant "serial".
	_, _, err := runF(t, "-samples", "0")
	wantUsageError(t, err, "-samples")
	_, _, err = runF(t, "-samples", "-5")
	wantUsageError(t, err, "-samples")
	_, _, err = runF(t, "-parallelism", "-1")
	wantUsageError(t, err, "-parallelism")
}

func TestPositionalArgsRejected(t *testing.T) {
	_, _, err := runF(t, "extra")
	wantUsageError(t, err, "unexpected arguments")
}

func TestParseErrorIsDistinguished(t *testing.T) {
	_, _, err := runF(t, "-no-such-flag")
	if err == nil || !cli.IsParseError(err) {
		t.Fatalf("expected parse error, got %v", err)
	}
}

func TestModelFlagValidated(t *testing.T) {
	_, _, err := runF(t, "-model", "quantum")
	wantUsageError(t, err, "unknown -model")
	_, _, err = runF(t, "-shots", "-3")
	wantUsageError(t, err, "-shots")
	// Shots under the count model would be silently ignored.
	_, _, err = runF(t, "-shots", "16")
	wantUsageError(t, err, "-shots")
	_, _, err = runF(t, "-model", "count", "-shots", "16")
	wantUsageError(t, err, "-shots")
}
