//go:build race

package estimate

// raceEnabled reports whether the race detector is compiled in; the
// paper-scale calibration tests shrink or skip under it, since
// instrumented simulations run an order of magnitude slower.
const raceEnabled = true
