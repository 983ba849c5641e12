package main

import (
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/experiments"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/netsim"
	"github.com/plcwifi/wolt/internal/topology"
)

func buildInstance(t *testing.T) *netsim.Instance {
	t.Helper()
	scen := experiments.NewTestbedScenario(77)
	topo, err := topology.Generate(scen.Topology)
	if err != nil {
		t.Fatal(err)
	}
	return netsim.Build(topo, scen.Radio)
}

func TestAssociateViaControlPlaneAllPolicies(t *testing.T) {
	inst := buildInstance(t)
	for _, policy := range []string{control.PolicyWOLT, control.PolicyGreedy, control.PolicyRSSI} {
		assign, moves, err := associateViaControlPlane(inst, policy, 10*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(assign) != len(inst.UserIDs) {
			t.Fatalf("%s: assignment covers %d users", policy, len(assign))
		}
		for i, j := range assign {
			if j == model.Unassigned || inst.Net.WiFiRates[i][j] <= 0 {
				t.Fatalf("%s: user %d invalidly on %d", policy, i, j)
			}
		}
		if policy != control.PolicyWOLT && moves != 0 {
			t.Errorf("%s reported %d re-associations, want 0", policy, moves)
		}
	}
}

func TestAssociateMatchesDirectWOLTQuality(t *testing.T) {
	inst := buildInstance(t)
	assign, _, err := associateViaControlPlane(inst, control.PolicyWOLT, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	opts := model.Options{Redistribute: true}
	viaControl := model.Aggregate(inst.Net, assign, opts)
	direct, err := netsim.WOLTPolicy{}.OnEpoch(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	directAgg := model.Aggregate(inst.Net, direct, opts)
	if viaControl < 0.95*directAgg {
		t.Errorf("control-plane aggregate %v well below direct %v", viaControl, directAgg)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag: want error")
	}
}
