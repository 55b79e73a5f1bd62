package netsim

import (
	"testing"

	"rpcoib/internal/perfmodel"
	"rpcoib/internal/sim"
)

// BenchmarkTransfer is b.N one-segment transfers into one receiver NIC with
// eight in flight, one per sender, each delivery starting its sender's next:
// a fabric in steady state, with no process involved. (The benchmark ladder's
// netsim.transfer_ns schedules all of its transfers before running any, so
// there every transfer is a first use of its record.)
func BenchmarkTransfer(b *testing.B) {
	s := sim.New(1)
	f := NewFabric(s, perfmodel.Link(perfmodel.NativeIB), nil)
	const senders = 8
	sent, got := 0, 0
	var next [senders]func()
	for i := range next {
		src := 1 + i
		next[i] = func() {
			got++
			if sent < b.N {
				sent++
				f.Transfer(src, 0, 256, next[src-1])
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < senders && sent < b.N; i++ {
		sent++
		f.Transfer(1+i, 0, 256, next[i])
	}
	s.Run()
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}
