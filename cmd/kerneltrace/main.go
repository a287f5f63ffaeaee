// Command kerneltrace boots a Kernel/Multics instance with event
// tracing on, runs the scenario catalogue's trace tour (directory
// building, pathname walks, a page-fault storm heavy enough to force
// eviction, truncation, scheduling) and an audit pass, and prints the
// meters:
// a sample of the kernel event stream, the per-module
// cycle-attribution table in certification order, and the
// Prometheus-style exposition lines.
//
// It exits non-zero if any event arrived with a module name that is
// not registered in the kernel dependency graph — the cheap lint
// that instrumentation stays in sync with internal/deps.
//
// With -kind the printed sample is restricted to the named event
// kinds (comma-separated); -kinds alone lists every kind the tracer
// knows, including the associative-memory triple (assoc-hit,
// assoc-miss, assoc-clear) added with the translation cache.
//
// With -spans the report adds the latency observatory: per
// (module, span kind) log₂ latency histograms with p50/p99/max (the
// percentiles are bucket upper bounds, deterministic overestimates of
// at most 2×) and a critical-path decomposition showing where each
// compound operation's cycles went. With -flame the command instead
// emits the retained spans in collapsed-stack format for standard
// flamegraph tooling and prints nothing else.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"multics/internal/audit"
	"multics/internal/core"
	"multics/internal/trace"
	"multics/internal/workload"
)

// eventSample is how many trailing events of the stream are printed.
const eventSample = 25

// kindHelp documents the event kinds that deserve more than their
// name; everything else is self-describing.
var kindHelp = map[string]string{
	"assoc-hit":      "translation served by the processor's associative memory (arg0 segno, arg1 page)",
	"assoc-miss":     "translation walked the descriptor tables and filled the cache (arg0 segno, arg1 page)",
	"assoc-clear":    "associative entries invalidated (arg0: 0 page shootdown, 1 segment shootdown, 2 process switch; arg1 page/segno or -1; arg2 entries cleared)",
	"write-error":    "a grouped page write-back failed after retries and its evicted pages were lost (arg0 pages in the submission, arg1 first record address)",
	"disk-queue":     "a transfer joined a pack's elevator queue (arg0 first record, arg1 queue depth at submission, arg2: 1 speculative read-ahead, 0 demand read or write batch)",
	"prefetch-issue": "a speculative read for a predicted-next page was queued into the second-chance cache (arg0 record, arg1 page)",
	"prefetch-hit":   "a demand fault claimed a prefetched frame and skipped its disk read (arg0 record, arg1 page)",
	"prefetch-drop":  "a speculative entry was discarded unclaimed (arg0 record, arg1 page, arg2: 0 transfer fault, 1 stale identity, 2 second-chance steal)",
	"net-frame":      "a frame cleared the demultiplexer or landed in a connection's ring (arg0 channel/connection, arg1 payload words, arg2: 1 handed straight to a subscriber, 0 queued)",
	"net-drop":       "a frame was lost, never silently (arg0 channel/connection, arg1: 0 bounded queue full, 1 protocol error, 2 connection out of credits; arg2 depth or credits)",
	"net-credit":     "a consumer returned a flow-control credit, reopening one window slot on its line (arg0 connection, arg1 credits after)",
	"remote-seg":     "the inter-node channel moved segment words (arg0: 0 read served/returned, 1 copy; arg1 words, arg2 link channel)",
}

// kindNames lists every event kind the tracer can emit or filter on.
func kindNames() []string {
	names := make([]string, 0, trace.NumKinds)
	for i := 0; i < trace.NumKinds; i++ {
		names = append(names, trace.Kind(i).String())
	}
	return names
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), "usage: kerneltrace [-kind k1,k2,...] [-kinds]\n\n")
	fmt.Fprintf(flag.CommandLine.Output(), "Boots a traced kernel, runs a representative workload, and prints the\nevent stream sample, the per-module cycle table, and Prometheus lines.\n\n")
	flag.PrintDefaults()
	fmt.Fprintf(flag.CommandLine.Output(), "\nevent kinds:\n")
	for _, name := range kindNames() {
		if help, ok := kindHelp[name]; ok {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", name, help)
		} else {
			fmt.Fprintf(flag.CommandLine.Output(), "  %s\n", name)
		}
	}
}

func main() {
	kindFilter := flag.String("kind", "", "restrict the printed event sample to these comma-separated kinds")
	listKinds := flag.Bool("kinds", false, "list the event kinds and exit")
	showSpans := flag.Bool("spans", false, "print span latency histograms and the critical-path decomposition")
	flame := flag.Bool("flame", false, "emit folded-stack (flamegraph) lines for the workload's spans and exit")
	flag.Usage = usage
	flag.Parse()
	if *listKinds {
		for _, name := range kindNames() {
			if help, ok := kindHelp[name]; ok {
				fmt.Printf("%-14s %s\n", name, help)
			} else {
				fmt.Println(name)
			}
		}
		return
	}
	wanted, err := parseKinds(*kindFilter)
	check(err)

	cfg := core.DefaultConfig()
	cfg.TraceEvents = 1 << 15
	k, err := core.Boot(cfg)
	check(err)
	rec := k.Trace
	// The tour is a script: it runs on this goroutine and takes no
	// executor.

	if *flame {
		check(workload.TraceTour().Drive(k, nil))
		fmt.Print(trace.FoldedStacks(rec.Spans()))
		failOnUnknown(rec)
		return
	}

	fmt.Println("kerneltrace: kernel-wide event tracing and per-module meters")
	fmt.Println()

	check(workload.TraceTour().Drive(k, nil))

	report := audit.Run(k)
	fmt.Printf("audit: clean=%v, %d findings, audit pass itself cost %d cycles\n\n", report.Clean(), len(report.Findings), report.Cycles)

	events := rec.Events()
	emitted := int(rec.Snapshot().Events)
	retained := len(events)
	if wanted != nil {
		var kept []trace.Event
		for _, e := range events {
			if wanted[e.Kind] {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	n := len(events)
	sample := min(eventSample, n)
	if wanted != nil {
		fmt.Printf("event stream: %d events emitted, %d retained, %d overwritten; %d match -kind %s, last %d:\n",
			emitted, retained, int(rec.Dropped()), n, *kindFilter, sample)
	} else {
		fmt.Printf("event stream: %d events emitted, %d retained, %d overwritten; last %d:\n",
			emitted, retained, int(rec.Dropped()), sample)
	}
	fmt.Println("         seq      cycle kind          module                     cost  args")
	fmt.Print(trace.FormatEvents(events[n-sample:]))
	fmt.Println()

	snap := rec.Snapshot()
	fmt.Print(snap.Table(k.CertificationOrder()))
	fmt.Println()
	if *showSpans {
		printSpans(rec, snap)
		fmt.Println()
	}
	fmt.Print(snap.PromText())

	failOnUnknown(rec)
}

func failOnUnknown(rec *trace.Recorder) {
	if unknown := rec.Unknown(); len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "kerneltrace: events arrived from modules not in the dependency graph: %v\n", unknown)
		os.Exit(1)
	}
}

// printSpans renders the latency observatory: the per-(module, kind)
// histograms and a decomposition of each compound operation's cycles
// into its child spans' shares, computed from the retained spans.
func printSpans(rec *trace.Recorder, snap trace.Snapshot) {
	keys := make([]trace.SpanKey, 0, len(snap.Spans))
	for key := range snap.Spans {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Module != keys[j].Module {
			return keys[i].Module < keys[j].Module
		}
		return keys[i].Kind < keys[j].Kind
	})
	fmt.Println("span latency by (module, kind) — p50/p99 are log2 bucket upper bounds:")
	for _, key := range keys {
		h := snap.Spans[key]
		fmt.Printf("    %-26s %-13s %6d spans %10d cyc (self %10d)  p50 %7d  p99 %7d  max %7d\n",
			key.Module, key.Kind, h.Count, h.Cycles, h.Self(), h.Percentile(0.50), h.Percentile(0.99), h.Max)
	}

	// Aggregate, over the retained spans, each (module, kind)'s total
	// cycles and its children's contributions, to show where the time
	// inside each compound operation went.
	spans := rec.Spans()
	byID := make(map[uint64]*trace.Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	total := make(map[trace.SpanKey]int64)
	childOf := make(map[trace.SpanKey]map[string]int64)
	for i := range spans {
		sp := &spans[i]
		key := trace.SpanKey{Module: sp.Module, Kind: sp.Kind}
		total[key] += sp.Cycles()
		if parent, ok := byID[sp.Parent]; ok {
			pk := trace.SpanKey{Module: parent.Module, Kind: parent.Kind}
			if childOf[pk] == nil {
				childOf[pk] = make(map[string]int64)
			}
			childOf[pk][sp.Module+":"+sp.Kind.String()] += sp.Cycles()
		}
	}
	fmt.Println()
	fmt.Println("critical-path decomposition (share of each compound operation, from retained spans):")
	for _, key := range keys {
		kids := childOf[key]
		tot := total[key]
		if len(kids) == 0 || tot <= 0 {
			continue
		}
		names := make([]string, 0, len(kids))
		var inKids int64
		for name, cyc := range kids {
			names = append(names, name)
			inKids += cyc
		}
		// Largest share first; ties by name for determinism.
		sort.Slice(names, func(i, j int) bool {
			if kids[names[i]] != kids[names[j]] {
				return kids[names[i]] > kids[names[j]]
			}
			return names[i] < names[j]
		})
		parts := make([]string, 0, len(names)+1)
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%.1f%% %s", 100*float64(kids[name])/float64(tot), name))
		}
		self := tot - inKids
		if self > 0 {
			parts = append(parts, fmt.Sprintf("%.1f%% self", 100*float64(self)/float64(tot)))
		}
		fmt.Printf("    %s %s = %s\n", key.Module, key.Kind, strings.Join(parts, " + "))
	}
}

// parseKinds resolves a comma-separated kind list to a filter set; an
// empty list means no filtering (nil set).
func parseKinds(list string) (map[trace.Kind]bool, error) {
	if list == "" {
		return nil, nil
	}
	byName := make(map[string]trace.Kind, trace.NumKinds)
	for i := 0; i < trace.NumKinds; i++ {
		byName[trace.Kind(i).String()] = trace.Kind(i)
	}
	wanted := make(map[trace.Kind]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		k, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown event kind %q (valid: %s)", name, strings.Join(kindNames(), ", "))
		}
		wanted[k] = true
	}
	return wanted, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kerneltrace:", err)
		os.Exit(1)
	}
}
