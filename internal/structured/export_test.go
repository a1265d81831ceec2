package structured

// Unexported routes of CharPoly, for the external differential tests.
var (
	CharPolyBM     = charPolyBM[uint64]
	CharPolyNewton = charPolyNewton[uint64]
)
