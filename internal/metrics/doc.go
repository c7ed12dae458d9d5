// Package metrics folds the runtime's Observer event stream and the
// serving layer's per-job reports into Prometheus-text-format series —
// counters for scheduler activity (steals, tempo switches, DVFS
// commits) and for jobs (submitted, completed), gauges for
// instantaneous power and cumulative energy, and a histogram for job
// latency — with no external dependencies. A Registry is an
// obs.Observer, so it can sit directly behind an obs.Async sink and
// be scraped over HTTP via Handler; the job series come only from
// JobSubmitted and JobDone, so a full sink never costs a job count.
//
// Beyond the scrape surface, LatencyHist exposes the cumulative
// latency histogram as a Hist value whose Sub and Quantile methods let
// a caller compute windowed percentiles — the signal the serving
// control loop (internal/control) reads every tick. Readers of the
// counters and gauges scrape them and read the text with ParseText. AddCollector appends external
// series (e.g. hermes_control_*) to each scrape without coupling this
// package to their owners.
package metrics
