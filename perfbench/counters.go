package main

import (
	vectorwise "vectorwise"
	"vectorwise/internal/bufmgr"
	"vectorwise/internal/core"
	"vectorwise/internal/plancache"
	"vectorwise/internal/storage"
)

// dbCounters is a snapshot of the DB's cumulative layer counters.
type dbCounters struct {
	plan  plancache.Stats
	scan  storage.ScanStatsSnapshot
	hash  core.HashStatsTotalsSnapshot
	buf   bufmgr.Stats
	mover vectorwise.MoverStats
}

func readCounters(db *vectorwise.DB) dbCounters {
	return dbCounters{
		plan:  db.PlanCacheStats(),
		scan:  db.ScanStats(),
		hash:  db.HashStats(),
		buf:   db.BufferManager().Stats(),
		mover: db.MoverStats(),
	}
}

// addDeltas stores the counter deltas from a to b as per-layer metrics.
func (a dbCounters) addDeltas(b dbCounters, m map[string]float64) {
	hits := float64(b.plan.Hits - a.plan.Hits)
	lookups := hits + float64(b.plan.Misses-a.plan.Misses)
	m["plancache.lookups"] = lookups
	if lookups > 0 {
		m["plancache.hit_ratio"] = hits / lookups
	}
	m["hashtable.tables"] = float64(b.hash.Tables - a.hash.Tables)
	m["hashtable.entries"] = float64(b.hash.Entries - a.hash.Entries)
	m["hashtable.resizes"] = float64(b.hash.Resizes - a.hash.Resizes)
	if b.hash.Tables > a.hash.Tables {
		// ProbeMax is a running maximum, not a sum: report it when this
		// phase built tables at all.
		m["hashtable.probe_max"] = float64(b.hash.ProbeMax)
	}
	scanned := float64(b.scan.GroupsScanned - a.scan.GroupsScanned)
	pruned := float64(b.scan.GroupsPruned - a.scan.GroupsPruned)
	m["storage.groups_scanned"] = scanned
	m["storage.groups_pruned"] = pruned
	if scanned+pruned > 0 {
		m["storage.pruned_ratio"] = pruned / (scanned + pruned)
	}
	loads := float64(b.buf.IOChunks - a.buf.IOChunks)
	m["bufmgr.chunk_loads"] = loads
	m["bufmgr.chunk_fetches"] = loads + float64(b.buf.Hits-a.buf.Hits)
	m["bufmgr.decoded_mb"] = float64(b.buf.IOBytes-a.buf.IOBytes) / (1 << 20)
	m["mover.passes"] = float64(b.mover.Passes - a.mover.Passes)
	m["mover.folds"] = float64(b.mover.Folds - a.mover.Folds)
	m["mover.rebuilds"] = float64(b.mover.Rebuilds - a.mover.Rebuilds)
	m["mover.retries"] = float64(b.mover.Retries - a.mover.Retries)
}

// addSpanLayers stores the median self time of the front-end replay
// spans as per-layer metrics.
func addSpanLayers(tr *tracer, m map[string]float64) {
	stats, _ := tr.selfTimes()
	for span, metric := range map[string]string{
		"sql.parse": "sql.parse_us", "sql.plan": "sql.plan_us",
		"rewriter": "rewriter.rewrite_us", "xcompile": "xcompile.compile_us",
	} {
		if st := stats[span]; st != nil {
			m[metric] = median(append([]float64(nil), st.self...))
		}
	}
}
