package graph

// AssertSparseMatchesDense exposes sparse_test.go's accessor-by-accessor
// comparison to the external test package in this directory.
var AssertSparseMatchesDense = assertSparseMatchesDense
