//go:build race

package ycsb

// wideThreads sizes TestYCSBWideClientsDeterministic under the race
// detector, where every live actor carries detector state: 10^5 actors do
// not fit an 8 GB host, 2·10^4 peak at ~2.6 GB RSS.
const wideThreads = 20_000
