//go:build poison

package bufpool

const Poison = true
