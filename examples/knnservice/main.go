// KNN service: the paper's "KNN" workload as a multi-job service —
// one persistent Runtime answers a stream of k-nearest-neighbour
// query batches submitted as concurrent jobs over the shared
// work-stealing pool. On the simulator backend the jobs serialize
// deterministically, so per-job reports are reproducible and the
// HERMES savings can be read off the aggregate stream.
//
//	go run ./examples/knnservice
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"hermes"
	"hermes/internal/bench/knn"
)

const (
	points  = 50_000
	queries = 4 // concurrent query-batch jobs per mode
)

func main() {
	fmt.Printf("KNN service: %d-point index, %d concurrent query jobs per mode, SystemA\n\n", points, queries)
	fmt.Printf("%-10s  %-6s  %-12s  %-10s  %-8s\n", "mode", "job", "span", "energy", "steals")

	for _, mode := range []hermes.Mode{hermes.Baseline, hermes.Unified} {
		reports := serve(mode)
		var energy, span float64
		for i, r := range reports {
			fmt.Printf("%-10s  %-6d  %-12v  %-10.2f  %-8d\n", mode, i, r.Span, r.EnergyJ, r.Steals)
			energy += r.EnergyJ
			span += r.Span.Seconds()
		}
		fmt.Printf("%-10s  total   %-12s  %-10.2f\n\n", mode, fmt.Sprintf("%.3fs", span), energy)
	}
}

// serve stands up one persistent Runtime and fires all query jobs at
// it from separate goroutines, as a service frontend would. Each job
// builds and answers one batch of KNN queries; each gets its own
// report.
func serve(mode hermes.Mode) []hermes.Report {
	rt, err := hermes.New(
		hermes.WithSpec(hermes.SystemA()),
		hermes.WithWorkers(16),
		hermes.WithMode(mode),
		hermes.WithSeed(11),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	reports := make([]hermes.Report, queries)
	var wg sync.WaitGroup
	for q := 0; q < queries; q++ {
		q := q
		batch := knn.Factory(points, 8, 11+int64(q))()
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := rt.Submit(context.Background(), batch.Root)
			if err != nil {
				log.Fatal(err)
			}
			r, err := job.Wait()
			if err != nil {
				log.Fatal(err)
			}
			if err := batch.Check(); err != nil {
				log.Fatal(err)
			}
			reports[q] = r
		}()
	}
	wg.Wait()
	return reports
}
