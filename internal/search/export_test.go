package search

// Test-only exports for resume_test.go, an external test package: every
// resume runs the frontier engine in internal/parallel, which imports this
// package, so those tests cannot live inside it.
var (
	RandomScenario   = randomScenario
	ChainConstraints = chainConstraints
	SerialCheckpoint = serialCheckpoint
	EqualStringSets  = equalStringSets
)
