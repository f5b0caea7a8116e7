package experiments

// Hooks for the external test package (lease_test.go), which drives
// the harness through package fleet — an import cycle for in-package
// tests.
var (
	SubsetOptions = subsetOptions
	SkipUnderRace = skipUnderRace
)

const RaceEnabled = raceEnabled
