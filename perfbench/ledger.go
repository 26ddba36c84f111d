package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported figure with the number of samples behind it.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// agreement is the traced run's self-check: along each request's
// critical path (client → router → slowest shard → its file system)
// the layers' self times must add up to the client's wall time, and the
// store's phase report must cover the store's span, both within 5%.
type agreement struct {
	Requests       int     `json:"requests"`
	LedgerWithin5  float64 `json:"ledger_within_5pct"` // share of requests
	LedgerSumRatio float64 `json:"ledger_sum_ratio"`   // Σ self times ÷ Σ wall
	PhaseCover     float64 `json:"phase_cover"`
	PhaseCoverOK   bool    `json:"phase_cover_ok"`
	LedgerOK       bool    `json:"ledger_ok"`
}

// covered returns how much of outer the union of ivs covers.
func covered(ivs []interval, outer interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var total time.Duration
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if !iv.start.After(cur.end) {
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
			continue
		}
		total += cur.overlap(outer)
		cur = iv
	}
	return total + cur.overlap(outer)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics reduces a traced phase's requests to the per-layer
// metrics and the self-agreement check.
//
// ph is the timed phase and ing the phase whose ingest the write-side
// metrics describe (the set-up's bulk load when the timed phase does
// not write). The ledger shares are taken over reads only, so a few
// long bulk writes do not swamp them; the agreement covers every
// request.
func layerMetrics(traces []*reqTrace, ing, ph *phase, refused int64) ([]metric, agreement) {
	var (
		reads, regionProbes, kernels, writes             int
		hop, rself, skew, fanout, reqB, respB, netB      float64
		storeQ, merge, phaseSum, shardSum                float64
		cands, frags, fskip, found, probed, scans        float64
		kernelUS, cells, shadowed, dead, kfrags, kskip   float64
		build, reorg, write, others, wfrags              float64
		probeT, extract, hits, misses, missBytes         float64
		fsROps, fsRBytes, fsRBusy                        float64
		fsWOps, fsWBytes, fsAOps, fsWBusy                float64
		ledgerSum, wallSum, hopSh, routerSh, storeSh, fs float64
		readWall                                         float64
		within                                           int
	)
	for _, t := range traces {
		wall := t.dur()
		var slowest, fastest *shardSpan
		for i := range t.shards {
			sp := &t.shards[i]
			if slowest == nil || sp.dur() > slowest.dur() {
				slowest = sp
			}
			if fastest == nil || sp.dur() < fastest.dur() {
				fastest = sp
			}
		}
		// The critical-path ledger: each layer's span minus the part of
		// it its child on the path covers.
		front := t.interval
		if t.hasFront {
			front = t.front
		}
		frontIn := front.overlap(t.interval)
		var shardIn, fsIn time.Duration
		if slowest != nil {
			shardIn = slowest.overlap(front)
			var ivs []interval
			for _, op := range t.fs {
				if op.shard == slowest.shard {
					ivs = append(ivs, op.interval)
				}
			}
			fsIn = covered(ivs, slowest.interval)
		}
		selfHop := wall - frontIn
		selfRouter := front.dur() - shardIn
		var selfStore time.Duration
		if slowest != nil {
			selfStore = slowest.dur() - fsIn
		}
		sum := selfHop + selfRouter + selfStore + fsIn
		ledgerSum += float64(sum)
		wallSum += float64(wall)
		if math.Abs(float64(sum-wall)) <= 0.05*float64(wall) {
			within++
		}

		for _, op := range t.fs {
			switch {
			case !op.write:
				fsROps++
				fsRBytes += float64(op.bytes)
				fsRBusy += us(op.dur())
			case op.append:
				fsAOps++
				fsWBytes += float64(op.bytes)
				fsWBusy += us(op.dur())
			default:
				fsWOps++
				fsWBytes += float64(op.bytes)
				fsWBusy += us(op.dur())
			}
		}

		if t.op == "write" || t.op == "delete" {
			writes++
			for _, sp := range t.shards {
				for _, r := range sp.writes {
					if r == nil {
						continue
					}
					build += us(r.Build)
					reorg += us(r.Reorg)
					write += us(r.Write)
					others += us(r.Others)
					wfrags++
				}
			}
			continue
		}
		reads++
		readWall += float64(wall)
		hopSh += float64(selfHop)
		routerSh += float64(selfRouter)
		storeSh += float64(selfStore)
		fs += float64(fsIn)
		hop += us(selfHop)
		rself += us(selfRouter)
		fanout += float64(len(t.shards))
		if len(t.shards) > 1 {
			skew += us(slowest.dur() - fastest.dur())
		}
		reqB += float64(t.reqBytes)
		respB += float64(t.respBytes)
		netB += float64(t.netBytes)
		if t.op == "kernel" {
			kernels++
			if slowest != nil {
				kernelUS += us(slowest.dur())
			}
			for _, sp := range t.shards {
				if r := sp.push; r != nil {
					cells += float64(r.Cells)
					shadowed += float64(r.Shadowed)
					dead += float64(r.Dead)
					kfrags += float64(r.Fragments)
					kskip += float64(r.Skipped)
				}
			}
			continue
		}
		regionProbes++
		if slowest != nil {
			storeQ += us(slowest.dur())
		}
		for _, sp := range t.shards {
			r := sp.read
			if r == nil {
				continue
			}
			merge += us(r.Merge)
			probeT += us(r.Probe)
			extract += us(r.Extract)
			phaseSum += float64(r.Sum())
			shardSum += float64(sp.dur())
			cands += float64(r.Candidates)
			frags += float64(r.Fragments)
			fskip += float64(r.FilterSkipped)
			found += float64(r.Found)
			probed += float64(r.Probed)
			scans += float64(r.Scans)
			hits += float64(r.CacheHits)
			misses += float64(r.CacheMisses)
			missBytes += float64(r.BytesRead)
		}
	}

	n := float64(len(traces))
	rd, rp, kn, wr := float64(reads), float64(regionProbes), float64(kernels), float64(writes)
	done := float64(ph.completed())
	var lagP99 time.Duration
	rate := ratio(done, ph.elapsed.Seconds())
	if len(ph.lags) > 0 {
		lagP99 = quantile(ph.lags, 0.99)
		rate = ratio(float64(len(ph.lags)), ph.elapsed.Seconds())
	}
	ms := []metric{
		{"serve.hop_us", "us", ratio(hop, rd), reads},
		{"wire.req_bytes", "B", ratio(reqB, rd), reads},
		{"wire.resp_bytes", "B", ratio(respB, rd), reads},
		{"wire.shard_bytes", "B", ratio(netB, rd), reads},
		{"serve.refused", "count", float64(refused), int(ph.attempted)},
		{"router.self_us", "us", ratio(rself, rd), reads},
		{"router.fanout", "shards", ratio(fanout, rd), reads},
		{"router.shard_skew_us", "us", ratio(skew, rd), reads},
		{"store.query_us", "us", ratio(storeQ, rp), regionProbes},
		{"store.merge_us", "us", ratio(merge, rp), regionProbes},
		{"store.phase_cover", "ratio", ratio(phaseSum, shardSum), regionProbes},
		{"store.candidates_per_read", "count", ratio(cands, rp), regionProbes},
		{"store.fragments_per_read", "count", ratio(frags, rp), regionProbes},
		{"store.filter_skip_ratio", "ratio", ratio(fskip, cands), regionProbes},
		{"store.found_per_probe", "ratio", ratio(found, probed), regionProbes},
		{"store.scan_share", "ratio", ratio(scans, frags), regionProbes},
		{"store.kernel_us", "us", ratio(kernelUS, kn), kernels},
		{"store.kernel_cells", "count", ratio(cells, kn), kernels},
		{"store.kernel_shadowed_ratio", "ratio", ratio(shadowed, cells+shadowed+dead), kernels},
		{"store.kernel_frag_skip_ratio", "ratio", ratio(kskip, kfrags+kskip), kernels},
		{"store.build_us", "us", ratio(build, wfrags), int(wfrags)},
		{"store.reorg_us", "us", ratio(reorg, wfrags), int(wfrags)},
		{"store.write_us", "us", ratio(write, wfrags), int(wfrags)},
		{"store.others_us", "us", ratio(others, wfrags), int(wfrags)},
		{"store.frags_per_write", "count", ratio(wfrags, float64(len(ing.lat[opWrite]))), len(ing.lat[opWrite])},
		{"core.probe_us", "us", ratio(probeT, rp), regionProbes},
		{"fragment.extract_us", "us", ratio(extract, rp), regionProbes},
		{"fragcache.hit_ratio", "ratio", ratio(hits, hits+misses), regionProbes},
		{"fragcache.miss_bytes_per_read", "B", ratio(missBytes, rp), regionProbes},
		{"fsim.read_ops_per_req", "count", ratio(fsROps, rd), reads},
		{"fsim.read_bytes_per_req", "B", ratio(fsRBytes, rd), reads},
		{"fsim.read_busy_us", "us", ratio(fsRBusy, rd), reads},
		{"fsim.write_ops", "count", ratio(fsWOps, wr), writes},
		{"fsim.write_bytes", "B", ratio(fsWBytes, wr), writes},
		{"fsim.append_ops", "count", ratio(fsAOps, wr), writes},
		{"fsim.write_busy_us", "us", ratio(fsWBusy, wr), writes},
		{"runtime.gc_per_kop", "1/kop", ratio(float64(ph.mem.numGC)*1000, done), ph.completed()},
		{"runtime.gc_pause_us", "us/kop", ratio(us(ph.mem.pause)*1000, done), ph.completed()},
		{"loadgen.lag_p99_us", "us", us(lagP99), len(ph.lags)},
		{"loadgen.rate_achieved", "1/s", rate, ph.completed()},
		{"ledger.hop_share", "ratio", ratio(hopSh, readWall), reads},
		{"ledger.router_share", "ratio", ratio(routerSh, readWall), reads},
		{"ledger.store_share", "ratio", ratio(storeSh, readWall), reads},
		{"ledger.fsim_share", "ratio", ratio(fs, readWall), reads},
		{"ledger.agree_ratio", "ratio", ratio(float64(within), n), len(traces)},
	}
	ag := agreement{
		Requests:       len(traces),
		LedgerWithin5:  ratio(float64(within), n),
		LedgerSumRatio: ratio(ledgerSum, wallSum),
		PhaseCover:     ratio(phaseSum, shardSum),
	}
	ag.LedgerOK = within == len(traces) && len(traces) > 0
	ag.PhaseCoverOK = regionProbes == 0 || math.Abs(ag.PhaseCover-1) <= 0.05
	return ms, ag
}
