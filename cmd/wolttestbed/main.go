// Command wolttestbed runs an all-in-one emulated testbed comparison: it
// generates a testbed-scale topology (3 extenders, 7 users, as in the
// paper's §V-D), drives the full distributed control plane — a central
// controller process-in-a-goroutine plus one TCP agent per user — for
// each policy, realizes the resulting association as real shaped TCP
// flows, and prints the measured comparison.
//
// Example:
//
//	wolttestbed -seed 7 -duration 500ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/emu"
	"github.com/plcwifi/wolt/internal/experiments"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/netsim"
	"github.com/plcwifi/wolt/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wolttestbed:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wolttestbed", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 2020, "topology seed")
		duration = fs.Duration("duration", 400*time.Millisecond, "measurement window per policy")
		timeout  = fs.Duration("timeout", 10*time.Second, "association wait timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scen := experiments.NewTestbedScenario(*seed)
	topo, err := topology.Generate(scen.Topology)
	if err != nil {
		return err
	}
	inst := netsim.Build(topo, scen.Radio)
	fmt.Printf("testbed: %d extenders (PLC caps", len(topo.Extenders))
	for _, e := range topo.Extenders {
		fmt.Printf(" %.0f", e.PLCCapacityMbps)
	}
	fmt.Printf(" Mbps), %d users, seed %d\n\n", len(topo.Users), *seed)

	type outcome struct {
		policy   string
		model    float64
		measured float64
		moves    int
	}
	var outcomes []outcome
	for _, policy := range []string{control.PolicyWOLT, control.PolicyGreedy, control.PolicyRSSI} {
		assign, moves, err := associateViaControlPlane(inst, policy, *timeout)
		if err != nil {
			return fmt.Errorf("%s: %w", policy, err)
		}
		run, err := emu.Run(emu.Config{
			Net:      inst.Net,
			Assign:   assign,
			Opts:     model.Options{Redistribute: true},
			Duration: *duration,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", policy, err)
		}
		outcomes = append(outcomes, outcome{
			policy:   string(policy),
			model:    run.ModelAggregateMbps,
			measured: run.AggregateMbps,
			moves:    moves,
		})
	}

	fmt.Printf("%-8s  %-14s  %-14s  %s\n", "policy", "model Mbps", "measured Mbps", "re-associations")
	for _, o := range outcomes {
		fmt.Printf("%-8s  %-14.1f  %-14.1f  %d\n", o.policy, o.model, o.measured, o.moves)
	}
	base := outcomes[len(outcomes)-1].measured // RSSI
	if base > 0 {
		fmt.Printf("\nWOLT improvement over RSSI: %.0f%%\n", (outcomes[0].measured/base-1)*100)
	}
	return nil
}

// associateViaControlPlane runs a real controller and one TCP agent per
// user, returning the resulting assignment (in user row order) and the
// total number of re-associations the controller issued.
func associateViaControlPlane(inst *netsim.Instance, policy string, timeout time.Duration) (model.Assignment, int, error) {
	server, err := control.NewServer("127.0.0.1:0", control.ServerConfig{
		PLCCaps:   inst.Net.PLCCaps,
		Policy:    policy,
		ModelOpts: model.Options{Redistribute: true},
	})
	if err != nil {
		return nil, 0, err
	}
	defer func() { _ = server.Close() }()

	agents := make([]*control.Agent, len(inst.UserIDs))
	defer func() {
		for _, a := range agents {
			if a != nil {
				_ = a.Close()
			}
		}
	}()
	for i, id := range inst.UserIDs {
		agent, err := control.Dial(server.Addr(), id)
		if err != nil {
			return nil, 0, err
		}
		agents[i] = agent
		if _, err := agent.Join(inst.Net.WiFiRates[i], inst.RSSI[i], timeout); err != nil {
			return nil, 0, fmt.Errorf("user %d join: %w", id, err)
		}
	}
	// Give any trailing re-association directives a moment to land.
	time.Sleep(100 * time.Millisecond)

	stats := server.StatsSnapshot()
	assign := make(model.Assignment, len(inst.UserIDs))
	for i, id := range inst.UserIDs {
		ext, ok := stats.Assignment[id]
		if !ok {
			return nil, 0, fmt.Errorf("user %d missing from controller state", id)
		}
		assign[i] = ext
	}
	return assign, stats.Reassociations, nil
}
