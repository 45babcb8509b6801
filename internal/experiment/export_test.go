package experiment

// Hooks for the external test package, whose rebind fuzz target draws
// the extended collectives of package estimate (which imports this
// package, so an internal test cannot import it).

// ClassKey returns the point's structure-class key.
func (pt Point) ClassKey() string { return pt.classKey() }

// SameMeasurement fails t unless a and b are bit-identical.
var SameMeasurement = sameMeasurement
