package des_test

// Benchmark entry points for the event pool. The bodies live in
// internal/bench so cmd/benchpool can pin the same measurements in CI; this
// wrapper exists for interactive `go test -bench` use. The external test
// package breaks the des -> bench -> des cycle.

import (
	"testing"

	"approxsim/internal/bench"
)

func BenchmarkEventChurn(b *testing.B) {
	b.Run("pooled", func(b *testing.B) { bench.EventChurn(b, true) })
	b.Run("unpooled", func(b *testing.B) { bench.EventChurn(b, false) })
	b.Run("cancel-rearm-pooled", func(b *testing.B) { bench.CancelRearm(b, true) })
	b.Run("cancel-rearm-unpooled", func(b *testing.B) { bench.CancelRearm(b, false) })
	b.Run("rto-rearm-pooled", func(b *testing.B) { bench.RTORearm(b, true) })
}
