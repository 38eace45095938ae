package joblog

// The external tests build their inputs with packages that import this
// one; these are the internals they hold to account.
var ParseNumeric = parseNumeric[string]

const CSVBlockSize = csvBlockSize
