package yieldmodel

import "testing"

func BenchmarkDie(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Die(628, 0.2)
	}
}
