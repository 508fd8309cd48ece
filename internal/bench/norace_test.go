//go:build !race

package bench

// raceBudgetDivisor leaves the test budgets as written outside race builds
// (see race_test.go).
const raceBudgetDivisor = 1
