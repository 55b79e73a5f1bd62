// The benchmark is a module of its own so that it builds with its own build
// file and stays out of the engine's `go build ./...` / `go test ./...`.
// Its path sits under rpcoib/ so it may import the engine's internal
// packages, which it only ever calls through their exported API.
module rpcoib/benchmark

go 1.22

require rpcoib v0.0.0

replace rpcoib => ../
