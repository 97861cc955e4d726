package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestSpanStoreTraceIndex holds the per-trace index to its definition:
// after every Add, Trace(id) equals filtering Snapshot() by id, for
// every id ever added (evicted ones included), at capacities small
// enough that most Adds evict.
func TestSpanStoreTraceIndex(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprint("cap", capacity), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(capacity)))
			st := NewSpanStore(capacity)
			ids := []string{"a", "b", "c", "d", "e", "f", "g"}
			for i := 0; i < 40*capacity+50; i++ {
				// Skewed draws: long-lived traces interleave with rare ones.
				id := ids[min(r.Intn(len(ids)), r.Intn(len(ids)))]
				st.Add(Span{TraceID: id, SpanID: fmt.Sprint(i), Name: "s"})

				snap := st.Snapshot()
				live := map[string]bool{}
				for _, id := range append(ids, "unknown") {
					var want []Span
					for _, sp := range snap {
						if sp.TraceID == id {
							want = append(want, sp)
						}
					}
					if got := st.Trace(id); !reflect.DeepEqual(got, want) {
						t.Fatalf("add %d: Trace(%s) = %v, want %v", i, id, got, want)
					}
					live[id] = len(want) > 0
				}
				for id := range st.byTrace {
					if !live[id] {
						t.Fatalf("add %d: index keeps evicted trace %s", i, id)
					}
				}
			}
		})
	}
}

// BenchmarkSpanStoreTrace looks up one 8-span trace in stores retaining
// more and more spans of other traces: the index makes the cost follow
// the trace, so ns/op stays flat as retained grows.
func BenchmarkSpanStoreTrace(b *testing.B) {
	for _, retained := range []int{64, 1024, DefaultSpanStoreSize} {
		b.Run(fmt.Sprint("retained=", retained), func(b *testing.B) {
			st := NewSpanStore(retained)
			for i := 0; i < retained; i++ {
				st.Add(Span{TraceID: fmt.Sprint("trace", i/8), SpanID: fmt.Sprint(i), Name: "s"})
			}
			id := fmt.Sprint("trace", retained/16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(st.Trace(id)) != 8 {
					b.Fatal("lookup lost spans")
				}
			}
		})
	}
}
