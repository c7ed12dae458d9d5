// Package cluster is the placement tier for multi-machine hermes
// simulations: named, parseable policies that route arriving jobs
// across a fleet of simulated machines (core.Cluster). The policies
// mirror the classic load-balancing menu — load-blind random,
// join-shortest-queue, power-of-k-choices backed by the cluster's
// idle-machine scan, and a gossip variant where placement stays blind
// and idle machines periodically pull work from loaded peers over
// deliberately stale queue views.
//
// Policies are pure descriptions (Kind + parameters), so they survive
// JSON round trips in sweep configs; Placer materialises the
// core.Placement behind one.
package cluster
