//go:build !poison

package bufpool

// Poison is true only in builds tagged `poison` (tests and CI): memory handed
// back — NativePool.Put here, a TCP receive view's release in transport — is
// filled with PoisonByte, so a view that outlives its release reads 0xDB and
// fails its test instead of reading whatever arrives next. A constant, so a
// normal build compiles the fill away.
const Poison = false
