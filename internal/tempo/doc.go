// Package tempo implements the HERMES tempo control of Ribic & Liu
// (ASPLOS 2014) once, independent of any executor:
//
//   - the immediacy list for workpath-sensitive control (Section 3.1):
//     a doubly-linked list across workers ordered by work-first
//     immediacy, grown at steal time and relayed when a victim runs
//     out of work;
//   - the deque-size thresholds for workload-sensitive control
//     (Section 3.2), including the online profiler that derives
//     thresholds from the recent average deque size:
//     thld_i = (2L/(K+1))·i for i = 1..K;
//   - Policy, the rules of Figures 4(b) and 5 over both, which the
//     simulator and the native executor call at the same events.
//
// The paper's Figure 5 pseudocode has two slips, resolved here. The
// list insertion at line 23 is corrected to the standard doubly-linked
// insert (InsertThief): a later thief sits between the victim and the
// earlier thief, with every next/prev pair mutual. And the tier index S
// spans [0, K], so that K thresholds yield K+1 tempo tiers, as the
// prose example (L=15, K=2 → thresholds {10, 20}, three tiers)
// requires.
package tempo
