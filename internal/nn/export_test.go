package nn

// Test-only bridges to the unexported training-engine internals, for
// the external nn_test package (which can import testkit — package nn
// itself cannot, because testkit depends on internal/core).

// FitShards exposes the canonical shard count to tests.
const FitShards = fitShards

// ReduceGradTree merges fitShards gradient slots into grads[0] with
// the training engine's fixed-order fold, one parameter at a time.
func ReduceGradTree(grads [][][]float64) {
	for pi := range grads[0] {
		var s [fitShards][]float64
		for v := range s {
			s[v] = grads[v][pi]
		}
		foldShards(&s)
	}
}
