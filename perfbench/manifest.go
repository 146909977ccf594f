package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// manifest records what a result was measured on and with: toolchain,
// host, build revision, seed and the full workload configuration.
type manifest struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`

	Workload       string  `json:"workload"`
	Why            string  `json:"why"`
	Seed           int64   `json:"seed"`
	BudgetS        float64 `json:"budget_s"`
	Config         any     `json:"config"`
	Service        service `json:"service_model"`
	LatencyLimitMs float64 `json:"latency_limit_ms"`
}

// service is the store service model every workload shares.
type service struct {
	Regions            []string `json:"regions"`
	WorkersPerReplica  int      `json:"workers_per_replica"`
	CassandraServiceMs float64  `json:"cassandra_service_ms"`
	FlushMs            float64  `json:"flush_ms"`
	ReadRepairChance   float64  `json:"read_repair_chance"`
	ZKServiceMs        float64  `json:"zk_service_ms"`
	ClusterSeed        int64    `json:"cluster_seed"`
}

func newManifest(def *workloadDef, seed int64, budget time.Duration) manifest {
	m := manifest{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Revision:   "unknown",
		Modified:   "unknown",
		Workload:   def.name,
		Why:        def.why,
		Seed:       seed,
		BudgetS:    budget.Seconds(),
		Config:     def.config,
		Service: service{
			WorkersPerReplica:  replicaWorkers,
			CassandraServiceMs: ms(serviceTime),
			FlushMs:            ms(flushTime),
			ReadRepairChance:   readRepair,
			ZKServiceMs:        ms(zkServiceTime),
			ClusterSeed:        clusterSeed,
		},
		LatencyLimitMs: ms(latencyLimit),
	}
	for _, r := range regions {
		m.Service.Regions = append(m.Service.Regions, string(r))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	return m
}

// cpuModel reads the host CPU model name; "unknown" where the kernel does
// not report one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
