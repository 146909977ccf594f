//go:build !race

package ycsb

// wideThreads sizes TestYCSBWideClientsDeterministic: 10^5 actors.
const wideThreads = 100_000
