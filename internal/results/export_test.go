package results

// CellsForTest exposes the cell fixture to the external test package
// (lease_test.go), which merges cells through package fleet — an
// import cycle for in-package tests.
var CellsForTest = cellsForTest
