// Package bufpool is a fixture stub mirroring the acquisition/release
// surface of rpcoib/internal/bufpool that the regmem analyzer matches on
// (Get/Acquire/Grow returning *Buffer, Put/Release/Grow consuming one, on a
// package whose path ends in "bufpool").
package bufpool

type Buffer struct {
	Data []byte
}

type NativePool struct{}

func (p *NativePool) Get(n int) *Buffer { return &Buffer{Data: make([]byte, n)} }

func (p *NativePool) Put(b *Buffer) {}

type ShadowPool struct{}

func (s *ShadowPool) Acquire(key int) *Buffer { return &Buffer{} }

func (s *ShadowPool) Release(b *Buffer) {}

func (s *ShadowPool) Grow(b *Buffer, n int) *Buffer { return &Buffer{Data: make([]byte, n)} }
