// Package metrics renders the executor's machine ledger and the
// serving layer's per-job reports as Prometheus-text-format series —
// counters for scheduler activity (steals, tempo switches, DVFS
// commits) and for jobs (submitted, completed), gauges for mean power
// and cumulative energy, and a histogram for job latency — with no
// external dependencies. The scheduler and energy series are read from
// the ledger source (SetLedger) at scrape time, so they are exact at
// any load; the job series come only from JobSubmitted and JobDone.
// Handler serves a scrape over HTTP.
//
// Beyond the scrape surface, LatencyHist exposes the cumulative
// latency histogram as a Hist value whose Sub and Quantile methods let
// a caller compute windowed percentiles — the signal the serving
// control loop (internal/control) reads every tick. Readers of the
// counters and gauges scrape them and read the text with ParseText. AddCollector appends external
// series (e.g. hermes_control_*) to each scrape without coupling this
// package to their owners.
package metrics
