//go:build race

package bench

// raceBudgetDivisor cuts the campaign-scale tests' exec budgets under the
// race detector. Their cost is the map kernels' loops over AFL-scheme maps
// of up to 8 MB, which the detector slows more than 100× (TestRunGridSmall:
// 0.4 s plain, 74 s raced). With the cut, `go test -race ./internal/bench/`
// finishes in about 5 minutes on a 2-vCPU Intel Xeon VM instead of running
// past go test's 10-minute default timeout. Every experiment still runs end
// to end; a campaign still completes at least one full fuzzing step, so
// only the number of steps per cell shrinks.
const raceBudgetDivisor = 10
