package exp

// MultiCoreSweepOf runs the multi-core sweep over the given core and tenant
// counts, for the package's external tests.
var MultiCoreSweepOf = multiCoreSweep
