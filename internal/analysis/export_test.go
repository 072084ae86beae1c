package analysis

// Handles for the external test package's DCE oracle (dce_oracle_test.go).
var (
	Pure       = pure
	RegClassOf = regClassOf
)
