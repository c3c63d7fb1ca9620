package transpile

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/topology"
	"repro/internal/weyl"
	"repro/internal/workloads"
)

// TestRoutersReturnCtxErrWhenCancelled: both routers notice an
// already-dead context at their cooperative polls and surface ctx.Err()
// itself, so a timed-out cell reports deadline exceeded — not a synthetic
// routing failure.
func TestRoutersReturnCtxErrWhenCancelled(t *testing.T) {
	g := topology.HeavyHex20()
	c, err := workloads.Generate("QFT", 8, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	layout, err := DenseLayout(g, c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := StochasticSwapCostCtx(ctx, g, c, layout, rand.New(rand.NewSource(1)), 5, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("stochastic router under dead ctx = %v, want context.Canceled", err)
	}
	if _, err := SabreSwapCostCtx(ctx, g, c, layout, rand.New(rand.NewSource(1)), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SABRE under dead ctx = %v, want context.Canceled", err)
	}
}

// TestPipelineCtxAbortsBetweenPasses: a pipeline whose PassContext carries
// a dead context stops before running any pass and returns the context
// error undecorated.
func TestPipelineCtxAbortsBetweenPasses(t *testing.T) {
	g := topology.HeavyHex20()
	pctx := pipelineContext(t, g, weyl.BasisCX, "GHZ", 4, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pctx.Ctx = ctx
	err := Pipeline{LayoutPass{}, RoutePass{}, TranslatePass{}}.Run(pctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pipeline under dead ctx = %v, want context.Canceled", err)
	}
	if pctx.Layout != nil || pctx.Routed != nil {
		t.Fatal("cancelled pipeline still produced artifacts")
	}
}

// TestCtxNeverChangesOutput pins the invariant the evaluate cache keys rely
// on: a run that completes under a live context is byte-identical to one
// with no context at all.
func TestCtxNeverChangesOutput(t *testing.T) {
	g := topology.HeavyHex20()
	c, err := workloads.Generate("QFT", 8, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	layout, err := DenseLayout(g, c)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(9)), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(9)), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SwapCount != withCtx.SwapCount || plain.Circuit.String() != withCtx.Circuit.String() {
		t.Fatal("context-threaded routing diverged from the plain path")
	}
}
