package main

import (
	"fmt"
	"net/http"

	"repro/internal/registry"
	"repro/internal/service"
)

// perLayer names the traced run's metrics in BENCHMARK.json order. Every
// workload measures each of them: on the workload's own path where the
// layer is on it, otherwise on the traced run's replay of the workload's
// inputs through that layer (see README.md, "Per-layer metrics").
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"service.submit_handler_ms", "ms"}, {"service.decode_us_per_record", "us"},
		{"service.allocs_per_record", "count"}, {"service.wire_bytes_per_record", "B"},
		{"service.query_handler_ms", "ms"}, {"service.job_queue_ms", "ms"}, {"service.job_run_ms", "ms"},
		{"service.mine_cache_hit_ratio", "ratio"}, {"service.failed_ops", "count"},
		{"registry.create_ms", "ms"}, {"registry.route_us", "us"},
		{"mining.apply_us_per_record", "us"}, {"mining.lock_wait_ms", "ms"}, {"mining.joint_cells", "count"},
		{"mining.snapshot_ms", "ms"}, {"mining.apriori_ms", "ms"},
	}
	for k := 1; k <= aprioriLevels; k++ {
		defs = append(defs, metricDef{fmt.Sprintf("mining.level%d_ms", k), "ms"},
			metricDef{fmt.Sprintf("mining.level%d_candidates", k), "count"})
	}
	defs = append(defs,
		metricDef{"mining.frequent_ratio", "ratio"}, metricDef{"mining.estimates_ms", "ms"},
		metricDef{"mining.delta_ms", "ms"}, metricDef{"mining.delta_cells", "count"},
		metricDef{"query.count_all_ms", "ms"},
		metricDef{"store.append_ms", "ms"}, metricDef{"store.fsync_ms", "ms"},
		metricDef{"store.wal_bytes_per_record", "B"}, metricDef{"store.checkpoint_ms", "ms"},
		metricDef{"store.checkpoint_bytes", "B"}, metricDef{"store.recover_ms", "ms"},
		metricDef{"core.prepare_us_per_record", "us"})
	for _, s := range []string{"rangd", "detgd", "mask", "cutpaste"} {
		defs = append(defs, metricDef{"core.perturb_ms." + s, "ms"})
	}
	for _, s := range []string{"rangd", "detgd", "mask", "cutpaste"} {
		defs = append(defs, metricDef{"experiment.scheme_ms." + s, "ms"})
	}
	return append(defs,
		metricDef{"experiment.evaluate_ms", "ms"}, metricDef{"dataset.generate_ms", "ms"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"trace.overhead_pct", "%"})
}()

// aprioriLevels is how many per-level Apriori metrics the JSON carries:
// the itemset lengths every workload's mine reaches at supmin 2%. Longer
// levels, where a workload has them, are printed as table-only numbers.
const aprioriLevels = 4

// routeSamples is how many requests each path gets in routeSample.
const routeSamples = 500

// tracerLayers fills the metrics measured from the tracer's spans: the
// shadow counter and store, the Apriori timing wrapper, core preparation
// and perturbation, the experiment layer and registry creation.
func tracerLayers(r *run) {
	t, L := r.tr, r.layer
	L["mining.apply_us_per_record"] = t.usPerWork("mining.apply")
	L["mining.delta_ms"] = t.meanMs("mining.delta")
	if n := t.get("mining.delta").calls; n > 0 {
		L["mining.delta_cells"] = t.get("mining.delta_cells").work / float64(n)
	}
	L["mining.joint_cells"] = t.get("mining.joint_cells").work
	L["mining.snapshot_ms"] = t.meanMs("mining.snapshot")
	L["mining.apriori_ms"] = t.meanMs("mining.apriori")
	L["mining.estimates_ms"] = t.meanMs("mining.estimates")
	L["query.count_all_ms"] = t.meanMs("query.count_all")
	runs := float64(max(t.get("mining.apriori").calls, 1))
	var cands float64
	for k := 1; ; k++ {
		a := t.get(fmt.Sprintf("mining.level%d", k))
		if a.calls == 0 && k > aprioriLevels {
			break
		}
		L[fmt.Sprintf("mining.level%d_ms", k)] = ms(a.total) / runs
		L[fmt.Sprintf("mining.level%d_candidates", k)] = a.work / runs
		cands += a.work
	}
	L["mining.frequent_ratio"] = finite(t.get("mining.frequent").work / cands)

	L["store.append_ms"] = t.meanMs("store.append")
	if a := t.get("store.append"); a.calls > 0 {
		L["store.fsync_ms"] = ms(t.get("store.fsync").total) / float64(a.calls)
		L["store.wal_bytes_per_record"] = finite(t.get("store.wal_bytes").work / a.work)
	}
	L["store.checkpoint_ms"] = t.meanMs("store.checkpoint")
	if a := t.get("store.checkpoint"); a.calls > 0 {
		L["store.checkpoint_bytes"] = a.work / float64(a.calls)
	}
	L["store.recover_ms"] = t.meanMs("store.recover")

	L["core.prepare_us_per_record"] = t.usPerWork("core.prepare")
	for _, s := range []string{"rangd", "detgd", "mask", "cutpaste"} {
		L["core.perturb_ms."+s] = t.meanMs("core.perturb." + s)
		L["experiment.scheme_ms."+s] = t.meanMs("experiment.scheme." + s)
	}
	L["experiment.evaluate_ms"] = t.meanMs("experiment.evaluate")
	L["registry.create_ms"] = t.meanMs("registry.create")
	L["registry.route_us"] = (t.meanMs("registry.routed") - t.meanMs("service.direct")) * 1000
}

// serviceLayers fills the service-layer metrics from the server's own
// telemetry over the measured interval: submitted records and wire bytes
// are what the workload sent in that interval.
func serviceLayers(r *run, x expoDelta, records, wireBytes int64, applyUS float64) {
	L := r.layer
	route := func(p string) map[string]string { return map[string]string{"route": p} }
	const hist = "frapp_http_request_duration_seconds"
	L["service.submit_handler_ms"] = x.meanMs(hist, route("/v1/submit-batch"))
	L["service.query_handler_ms"] = x.meanMs(hist, route("/v1/query"))
	L["service.job_queue_ms"] = x.meanMs("frapp_job_state_seconds", map[string]string{"state": service.JobQueued})
	L["service.job_run_ms"] = x.meanMs("frapp_job_state_seconds", map[string]string{"state": service.JobRunning})
	hits, misses := x.sum("frapp_mine_cache_hits_total", nil), x.sum("frapp_mine_cache_misses_total", nil)
	L["service.mine_cache_hit_ratio"] = finite(hits / (hits + misses))
	if records > 0 {
		handlerUS := x.sum(hist+"_sum", route("/v1/submit-batch")) * 1e6 / float64(records)
		L["service.decode_us_per_record"] = handlerUS - applyUS
		L["service.wire_bytes_per_record"] = float64(wireBytes) / float64(records)
	}
	if n := x.sum(hist+"_count", route("/v1/submit-batch")); n > 0 {
		L["mining.lock_wait_ms"] = x.sum("frapp_ingest_lock_wait_seconds_sum", nil) * 1000 / n
	}
}

// routeSample sends n GET /v1/stats requests through the registry handler
// and n straight to the collection's own server handler; the difference of
// the means is registry.route_us. A cheap request keeps the routing cost
// visible above the handler's own run-to-run spread.
func routeSample(r *run, routed http.Handler, base string, direct http.Handler, n int) error {
	for i := 0; i < n; i++ {
		if err := r.tr.time("registry.routed", 0, 0, func() error {
			_, err := stats(routed, base)
			return err
		}); err != nil {
			return err
		}
		if err := r.tr.time("service.direct", 0, 0, func() error {
			_, err := stats(direct, "")
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// createReplay times registry creation for workloads whose own collection
// is adopted rather than created: a named collection is created through
// the registry's HTTP surface, awaited and deleted.
func createReplay(r *run, reg *registry.Registry, h http.Handler, scheme string) error {
	if err := createCollection(r, reg, h, "replay", scheme); err != nil {
		return err
	}
	return callJSON(h, http.MethodDelete, "/v1/collections/replay", nil, http.StatusNoContent, nil)
}
