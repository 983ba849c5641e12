package control

import (
	"net"
	"strings"
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/model"
)

const testTimeout = 5 * time.Second

// fig3Server starts a controller managing the paper's Fig 3 network.
func fig3Server(t *testing.T, policy string) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", ServerConfig{
		PLCCaps:   []float64{60, 20},
		Policy:    policy,
		ModelOpts: model.Options{Redistribute: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func dial(t *testing.T, s *Server, userID int) *Agent {
	t.Helper()
	a, err := Dial(s.Addr(), userID)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	return a
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", ServerConfig{}); err == nil {
		t.Error("no capacities: want error")
	}
	if _, err := NewServer("127.0.0.1:0", ServerConfig{PLCCaps: []float64{0}}); err == nil {
		t.Error("zero capacity: want error")
	}
	if _, err := NewServer("127.0.0.1:0", ServerConfig{PLCCaps: []float64{10}, Policy: "bogus"}); err == nil {
		t.Error("unknown policy: want error")
	}
}

// TestWOLTFig3EndToEnd drives the Fig 3 case study through real sockets:
// user 1 joins and lands somewhere; when user 2 joins, the WOLT controller
// computes the optimal configuration (user1→ext2, user2→ext1) and pushes a
// re-association to user 1 if needed.
func TestWOLTFig3EndToEnd(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)

	a1 := dial(t, s, 1)
	ext1, err := a1.Join([]float64{15, 10}, []float64{-60, -70}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	// Alone, user 1's best utility is extender 0 (min(30,15)=15 > 10).
	if ext1 != 0 {
		t.Errorf("user 1 initially on %d, want 0", ext1)
	}

	a2 := dial(t, s, 2)
	ext2, err := a2.Join([]float64{40, 20}, []float64{-55, -65}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if ext2 != 0 {
		t.Errorf("user 2 on %d, want 0", ext2)
	}
	// User 1 must be pushed to extender 1 (the paper's optimal Fig 3d).
	moved, err := a1.WaitForMove(0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Errorf("user 1 re-associated to %d, want 1", moved)
	}

	stats, err := a2.Stats(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Users != 2 || stats.Joins != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Reassociations != 1 {
		t.Errorf("reassociations = %d, want 1", stats.Reassociations)
	}
	if stats.Assignment[1] != 1 || stats.Assignment[2] != 0 {
		t.Errorf("assignment = %v, want {1:1, 2:0}", stats.Assignment)
	}
	if stats.Policy != "wolt" {
		t.Errorf("policy = %q", stats.Policy)
	}
}

func TestGreedyPolicyNeverMovesExistingUsers(t *testing.T) {
	s := fig3Server(t, PolicyGreedy)

	a1 := dial(t, s, 1)
	ext1, err := a1.Join([]float64{15, 10}, nil, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if ext1 != 0 {
		t.Errorf("user 1 on %d, want 0", ext1)
	}
	a2 := dial(t, s, 2)
	ext2, err := a2.Join([]float64{40, 20}, nil, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig 3c greedy outcome: user 2 picks extender 2.
	if ext2 != 1 {
		t.Errorf("user 2 on %d, want 1", ext2)
	}
	stats, err := a1.Stats(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reassociations != 0 {
		t.Errorf("greedy reassociated %d users, want 0", stats.Reassociations)
	}
	if a1.Moves() != 0 {
		t.Errorf("user 1 moved %d times under greedy", a1.Moves())
	}
}

func TestRSSIPolicy(t *testing.T) {
	s := fig3Server(t, PolicyRSSI)
	a1 := dial(t, s, 1)
	ext, err := a1.Join([]float64{15, 10}, []float64{-80, -50}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if ext != 1 {
		t.Errorf("RSSI put user on %d, want strongest-signal extender 1", ext)
	}
}

func TestRSSIPolicyFallsBackToRates(t *testing.T) {
	s := fig3Server(t, PolicyRSSI)
	a1 := dial(t, s, 1)
	// No RSSI vector supplied: the controller uses rates as the signal.
	ext, err := a1.Join([]float64{15, 10}, nil, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if ext != 0 {
		t.Errorf("RSSI-by-rate put user on %d, want 0", ext)
	}
}

func TestJoinValidation(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)
	a := dial(t, s, 1)
	if _, err := a.Join([]float64{1, 2, 3}, nil, testTimeout); err == nil ||
		!strings.Contains(err.Error(), "extenders") {
		t.Errorf("wrong-width scan accepted: %v", err)
	}
	b := dial(t, s, 2)
	if _, err := b.Join([]float64{0, 0}, nil, testTimeout); err == nil {
		t.Error("unreachable user accepted")
	}
	// A valid join still works after errors on the same connection.
	if _, err := a.Join([]float64{15, 10}, nil, testTimeout); err != nil {
		t.Fatalf("valid join after error: %v", err)
	}
}

func TestDuplicateJoinRejected(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)
	a := dial(t, s, 7)
	if _, err := a.Join([]float64{15, 10}, nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	b := dial(t, s, 7)
	if _, err := b.Join([]float64{15, 10}, nil, testTimeout); err == nil {
		t.Error("duplicate user ID accepted")
	}
}

func TestLeaveFreesUser(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)
	a := dial(t, s, 1)
	if _, err := a.Join([]float64{15, 10}, nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := a.Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.StatsSnapshot().Users == 0 })
	st := s.StatsSnapshot()
	if st.Leaves != 1 {
		t.Errorf("leaves = %d, want 1", st.Leaves)
	}
	// The ID can join again afterwards.
	b := dial(t, s, 1)
	if _, err := b.Join([]float64{15, 10}, nil, testTimeout); err != nil {
		t.Fatal(err)
	}
}

func TestAbruptDisconnectCountsAsLeave(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)
	a := dial(t, s, 3)
	if _, err := a.Join([]float64{15, 10}, nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	_ = a.Close()
	waitFor(t, func() bool { return s.StatsSnapshot().Users == 0 })
}

func TestManyAgents(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", ServerConfig{
		PLCCaps: []float64{100, 80, 60},
		Policy:  PolicyWOLT,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	agents := make([]*Agent, 12)
	for i := range agents {
		a, err := Dial(s.Addr(), i)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
		agents[i] = a
		rates := []float64{
			float64(5 + (i*7)%50),
			float64(5 + (i*13)%50),
			float64(5 + (i*23)%50),
		}
		if _, err := a.Join(rates, nil, testTimeout); err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	st := s.StatsSnapshot()
	if st.Users != 12 || st.Joins != 12 {
		t.Errorf("stats = %+v", st)
	}
	// Every user ends up associated somewhere valid.
	for id, ext := range st.Assignment {
		if ext < 0 || ext > 2 {
			t.Errorf("user %d on invalid extender %d", id, ext)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached before timeout")
}

func TestUpdateScanWOLTReassociates(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)
	a := dial(t, s, 1)
	ext, err := a.Join([]float64{15, 10}, nil, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if ext != 0 {
		t.Fatalf("initial extender %d, want 0", ext)
	}
	// The user walked: now its only good link is extender 1.
	if err := a.UpdateScan([]float64{1, 50}, nil); err != nil {
		t.Fatal(err)
	}
	moved, err := a.WaitForMove(0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Errorf("re-associated to %d, want 1", moved)
	}
	waitFor(t, func() bool { return s.StatsSnapshot().Reassociations == 1 })
}

func TestUpdateScanRSSIRoams(t *testing.T) {
	s := fig3Server(t, PolicyRSSI)
	a := dial(t, s, 1)
	if _, err := a.Join([]float64{15, 10}, []float64{-50, -80}, testTimeout); err != nil {
		t.Fatal(err)
	}
	if a.Extender() != 0 {
		t.Fatalf("initial extender %d, want 0", a.Extender())
	}
	// Signal flipped: extender 1 now strongest.
	if err := a.UpdateScan([]float64{15, 10}, []float64{-80, -50}); err != nil {
		t.Fatal(err)
	}
	moved, err := a.WaitForMove(0, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Errorf("roamed to %d, want 1", moved)
	}
}

func TestUpdateScanGreedyStaysPut(t *testing.T) {
	s := fig3Server(t, PolicyGreedy)
	a := dial(t, s, 1)
	if _, err := a.Join([]float64{15, 10}, nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := a.UpdateScan([]float64{1, 50}, nil); err != nil {
		t.Fatal(err)
	}
	// Greedy never reassigns: allow the server a moment, then confirm.
	time.Sleep(100 * time.Millisecond)
	if a.Extender() != 0 {
		t.Errorf("greedy moved the user to %d", a.Extender())
	}
	if a.Moves() != 0 {
		t.Errorf("greedy issued %d moves", a.Moves())
	}
}

func TestUpdateBeforeJoinRejected(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	jc := newJSONConn(conn)
	if err := jc.send(Message{Type: MsgUpdate, UserID: 5, Rates: []float64{15, 10}}); err != nil {
		t.Fatal(err)
	}
	msg, err := jc.recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgError {
		t.Errorf("reply = %q, want error", msg.Type)
	}
}

func TestUpdateScanValidation(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)
	a := dial(t, s, 1)
	if _, err := a.Join([]float64{15, 10}, nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	// Wrong-width update is rejected but the session survives.
	if err := a.UpdateScan([]float64{15}, nil); err != nil {
		t.Fatal(err)
	}
	// Unreachable update rejected too.
	if err := a.UpdateScan([]float64{0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if a.Extender() != 0 {
		t.Errorf("bad updates moved the user to %d", a.Extender())
	}
	// A valid update still works afterwards.
	if err := a.UpdateScan([]float64{1, 50}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WaitForMove(0, testTimeout); err != nil {
		t.Fatal(err)
	}
}

func TestAgentErrSurfacesAsyncRejections(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)
	a := dial(t, s, 1)
	if _, err := a.Join([]float64{15, 10}, nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	if a.Err() != nil {
		t.Fatalf("unexpected early error: %v", a.Err())
	}
	if err := a.UpdateScan([]float64{0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return a.Err() != nil })
	if !strings.Contains(a.Err().Error(), "reaches no extender") {
		t.Errorf("err = %v", a.Err())
	}
}

func TestWaitForMoveTimeout(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)
	a := dial(t, s, 1)
	if _, err := a.Join([]float64{15, 10}, nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WaitForMove(a.Extender(), 100*time.Millisecond); err == nil {
		t.Error("want timeout error when nothing moves")
	}
}

// TestOfflineOnlyPolicySurfacesTypedError checks the controller never
// silently falls back when its policy has no online form: joining under
// the exhaustive "optimal" strategy must fail with the typed sentinel's
// message rather than hand the user an arbitrary extender.
func TestOfflineOnlyPolicySurfacesTypedError(t *testing.T) {
	s := fig3Server(t, "optimal")
	a := dial(t, s, 1)
	_, err := a.Join([]float64{15, 10}, nil, testTimeout)
	if err == nil {
		t.Fatal("join under an offline-only policy should fail")
	}
	if !strings.Contains(err.Error(), "no online form") {
		t.Errorf("join error = %q, want the no-online-form sentinel surfaced", err)
	}
	if !strings.Contains(err.Error(), "optimal") {
		t.Errorf("join error = %q, want the policy named", err)
	}
}
