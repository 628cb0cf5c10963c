package native

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"udsim/internal/circuit"
	"udsim/internal/gen"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/resilience"
	"udsim/internal/vectors"
)

func requireGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
}

// drillPolicy keeps the drills fast: a short batch deadline (the wedge
// drill waits it out), two respawns, millisecond backoff.
func drillPolicy() resilience.Policy {
	return resilience.Policy{
		LevelBudget:  500 * time.Millisecond,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
	}
}

// testConfig compiles name with the technique and returns the child
// config plus an in-process reference that maps a vector to its packed
// primary-output bits.
func testConfig(t *testing.T, name, technique string) (Config, func(vec []bool) []byte) {
	t.Helper()
	c, err := gen.ISCAS85(name)
	if err != nil {
		t.Fatal(err)
	}
	norm := c.Normalize()
	cfg := Config{
		Engine:      "native/" + technique,
		Technique:   technique,
		CircuitHash: HashBench(norm),
		Policy:      drillPolicy(),
	}
	var ref func(vec []bool) []byte
	switch technique {
	case "parallel":
		s, err := parsim.Compile(norm, parsim.Config{WordBits: 32})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Layout = LayoutOf(s.Core)
		cfg.Init, cfg.Sim = s.Programs()
		ref = refFunc(norm, func(vec []bool) { s.ApplyVector(vec) }, s.Final)
	case "pcset":
		s, err := pcset.Compile(norm, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Layout = LayoutOf(s.Core)
		cfg.Init, cfg.Sim = s.Programs()
		ref = refFunc(norm, func(vec []bool) { s.ApplyVector(vec) }, s.Final)
	default:
		t.Fatalf("unknown technique %q", technique)
	}
	return cfg, ref
}

func refFunc(c *circuit.Circuit, apply func([]bool), final func(circuit.NetID) bool) func([]bool) []byte {
	return func(vec []bool) []byte {
		apply(vec)
		po := make([]bool, len(c.Outputs))
		for i, id := range c.Outputs {
			po[i] = final(id)
		}
		return packBits(nil, po)
	}
}

func newSupervisor(t *testing.T, cfg Config) *Supervisor {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// countWorkspaces counts udsim-native- temp dirs — the hygiene metric.
func countWorkspaces(t *testing.T) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "udsim-native-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

func TestFrameCodec(t *testing.T) {
	payload := []byte{1, 2, 3, 250, 0}
	frame := appendFrame(nil, frameBatch, payload)
	typ, got, err := readFrame(bytes.NewReader(frame))
	if err != nil || typ != frameBatch || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: typ %d payload %v err %v", typ, got, err)
	}

	// CRC flip.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x40
	if _, _, err := readFrame(bytes.NewReader(bad)); !errors.Is(err, errCRC) {
		t.Fatalf("corrupted frame: err %v, want errCRC", err)
	}

	// Truncation mid-frame.
	if _, _, err := readFrame(bytes.NewReader(frame[:len(frame)-2])); !errors.Is(err, errTruncated) {
		t.Fatalf("truncated frame: err %v, want errTruncated", err)
	}

	// Clean EOF at a frame boundary stays io.EOF.
	if _, _, err := readFrame(bytes.NewReader(nil)); err == nil || errors.Is(err, errTruncated) {
		t.Fatalf("empty stream: err %v, want bare EOF", err)
	}

	// Oversized payload declaration.
	huge := make([]byte, 8)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := readFrame(bytes.NewReader(huge)); !errors.Is(err, errOversized) {
		t.Fatalf("oversized frame: err %v, want errOversized", err)
	}
}

func TestPackBits(t *testing.T) {
	vec := []bool{true, false, false, true, true, false, false, false, true}
	p := packBits(nil, vec)
	if len(p) != 2 || p[0] != 0b00011001 || p[1] != 0b00000001 {
		t.Fatalf("packBits = %08b", p)
	}
	for i, b := range vec {
		if Bit(p, i) != b {
			t.Fatalf("Bit(%d) = %v, want %v", i, Bit(p, i), b)
		}
	}
}

// TestBitIdentity drives c432 through the native child with both
// techniques across several batches and compares every vector's packed
// outputs against the in-process engine. Close must remove the
// workspace.
func TestBitIdentity(t *testing.T) {
	requireGo(t)
	for _, technique := range []string{"parallel", "pcset"} {
		t.Run(technique, func(t *testing.T) {
			cfg, ref := testConfig(t, "c432", technique)
			s := newSupervisor(t, cfg)
			dir := s.Dir()
			if _, err := os.Stat(dir); err != nil {
				t.Fatalf("workspace missing while open: %v", err)
			}
			vecs := vectors.Random(48, len(cfg.Layout.Inputs), 1990)
			for start := 0; start < vecs.Len(); start += 16 {
				batch := vecs.Bits[start : start+16]
				got, err := s.RunBatch(batch)
				if err != nil {
					t.Fatalf("RunBatch: %v", err)
				}
				for i, vec := range batch {
					if want := ref(vec); !bytes.Equal(got[i], want) {
						t.Fatalf("vector %d: native %08b, in-process %08b", start+i, got[i], want)
					}
				}
			}
			if err := s.Ping(); err != nil {
				t.Fatalf("Ping: %v", err)
			}
			if s.State() != StateServing {
				t.Fatalf("state = %v, want serving", s.State())
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Fatalf("workspace %s survived Close", dir)
			}
		})
	}
}

// TestRespawnOnCrash bakes a child that exits mid-stream on its second
// batch: the supervisor must respawn and the replayed batch must come
// back bit-identical (settled outputs depend only on the vector).
func TestRespawnOnCrash(t *testing.T) {
	requireGo(t)
	cfg, ref := testConfig(t, "c432", "parallel")
	cfg.Chaos = ChildChaos{CrashAtBatch: 2}
	s := newSupervisor(t, cfg)
	vecs := vectors.Random(24, len(cfg.Layout.Inputs), 7)
	for start := 0; start < vecs.Len(); start += 8 {
		batch := vecs.Bits[start : start+8]
		got, err := s.RunBatch(batch)
		if err != nil {
			t.Fatalf("batch at %d: %v", start, err)
		}
		for i, vec := range batch {
			if want := ref(vec); !bytes.Equal(got[i], want) {
				t.Fatalf("vector %d diverged after respawn", start+i)
			}
		}
	}
	f := s.LastFault()
	if f == nil || f.Kind != resilience.FaultSubprocess {
		t.Fatalf("LastFault = %v, want subprocess", f)
	}
	if f.ExitStatus != 7 {
		t.Fatalf("ExitStatus = %d, want 7", f.ExitStatus)
	}
	if s.Quarantined() {
		t.Fatal("respawn should have recovered, not quarantined")
	}
}

// TestQuarantineOnPersistentCrash bakes a child that dies on every
// first batch: MaxRetries respawns hit the same wall and the supervisor
// must quarantine with the typed fault.
func TestQuarantineOnPersistentCrash(t *testing.T) {
	requireGo(t)
	cfg, _ := testConfig(t, "c432", "parallel")
	cfg.Chaos = ChildChaos{CrashAtBatch: 1}
	s := newSupervisor(t, cfg)
	vecs := vectors.Random(4, len(cfg.Layout.Inputs), 7)
	_, err := s.RunBatch(vecs.Bits)
	f, ok := resilience.AsFault(err)
	if !ok || f.Kind != resilience.FaultSubprocess {
		t.Fatalf("err = %v, want subprocess fault", err)
	}
	if !s.Quarantined() {
		t.Fatalf("state = %v, want quarantined", s.State())
	}
	// A quarantined supervisor refuses further batches with a typed,
	// non-transient fault.
	_, err = s.RunBatch(vecs.Bits)
	if f, ok := resilience.AsFault(err); !ok || f.Transient() {
		t.Fatalf("post-quarantine err = %v, want non-transient fault", err)
	}
}

// TestProtocolFaults drives the baked framing misbehaviors — corrupt
// CRC, truncated results frame — and asserts the protocol fault kind
// with frame coordinates.
func TestProtocolFaults(t *testing.T) {
	requireGo(t)
	cases := []struct {
		name  string
		chaos ChildChaos
	}{
		{"corrupt-crc", ChildChaos{CorruptCRCAtBatch: 1}},
		{"truncated", ChildChaos{TruncateAtBatch: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, _ := testConfig(t, "c432", "parallel")
			cfg.Chaos = tc.chaos
			s := newSupervisor(t, cfg)
			vecs := vectors.Random(4, len(cfg.Layout.Inputs), 7)
			_, err := s.RunBatch(vecs.Bits)
			f, ok := resilience.AsFault(err)
			if !ok || f.Kind != resilience.FaultProtocol {
				t.Fatalf("err = %v, want protocol fault", err)
			}
			if f.Frame != 1 {
				t.Fatalf("Frame = %d, want 1", f.Frame)
			}
			if !s.Quarantined() {
				t.Fatal("baked protocol violation repeats on respawn; want quarantine")
			}
		})
	}
}

// TestWedgedChild bakes a child that answers the handshake and then
// never answers a batch: the per-batch deadline must fire as a
// deadline fault wrapping ErrChildStall — never a hang.
func TestWedgedChild(t *testing.T) {
	requireGo(t)
	cfg, _ := testConfig(t, "c432", "parallel")
	cfg.Chaos = ChildChaos{WedgeAtBatch: 1}
	cfg.Policy.LevelBudget = 200 * time.Millisecond
	s := newSupervisor(t, cfg)
	vecs := vectors.Random(2, len(cfg.Layout.Inputs), 7)
	_, err := s.RunBatch(vecs.Bits)
	f, ok := resilience.AsFault(err)
	if !ok || f.Kind != resilience.FaultDeadline || !errors.Is(f.Err, resilience.ErrChildStall) {
		t.Fatalf("err = %v, want deadline fault wrapping ErrChildStall", err)
	}
	if !s.Quarantined() {
		t.Fatal("wedge repeats on respawn; want quarantine")
	}
}

// TestStderrFlood bakes a child that floods ~1MiB of stderr and exits:
// the drain must never deadlock the supervisor, and the fault must
// carry the exit status and a capped stderr tail.
func TestStderrFlood(t *testing.T) {
	requireGo(t)
	cfg, _ := testConfig(t, "c432", "parallel")
	cfg.Chaos = ChildChaos{FloodStderrAtBatch: 1}
	s := newSupervisor(t, cfg)
	vecs := vectors.Random(4, len(cfg.Layout.Inputs), 7)
	_, err := s.RunBatch(vecs.Bits)
	f, ok := resilience.AsFault(err)
	if !ok || f.Kind != resilience.FaultSubprocess {
		t.Fatalf("err = %v, want subprocess fault", err)
	}
	if f.ExitStatus != 3 {
		t.Fatalf("ExitStatus = %d, want 3", f.ExitStatus)
	}
	if len(f.Stderr) == 0 || len(f.Stderr) > tailCap {
		t.Fatalf("stderr tail %d bytes, want (0, %d]", len(f.Stderr), tailCap)
	}
	if !strings.Contains(f.Stderr, "zzzz") {
		t.Fatalf("stderr tail lost the flood: %.40q", f.Stderr)
	}
}

// TestKillMidBatch uses the parent-side disruptor to SIGKILL a
// well-behaved child right after a batch is sent: the supervisor must
// classify the death as a subprocess fault, respawn once, and the
// replayed batch must come back bit-identical.
func TestKillMidBatch(t *testing.T) {
	requireGo(t)
	cfg, ref := testConfig(t, "c432", "parallel")
	kill := &KillAtBatch{Batch: 2}
	cfg.Disrupt = kill
	s := newSupervisor(t, cfg)
	vecs := vectors.Random(24, len(cfg.Layout.Inputs), 42)
	for start := 0; start < vecs.Len(); start += 8 {
		batch := vecs.Bits[start : start+8]
		got, err := s.RunBatch(batch)
		if err != nil {
			t.Fatalf("batch at %d: %v", start, err)
		}
		for i, vec := range batch {
			if want := ref(vec); !bytes.Equal(got[i], want) {
				t.Fatalf("vector %d diverged after SIGKILL respawn", start+i)
			}
		}
	}
	if kill.Kills != 1 {
		t.Fatalf("kills = %d, want 1", kill.Kills)
	}
	f := s.LastFault()
	if f == nil || f.Kind != resilience.FaultSubprocess || f.ExitStatus != -1 {
		t.Fatalf("LastFault = %v, want signaled subprocess fault", f)
	}
	if s.Quarantined() {
		t.Fatal("one SIGKILL must not quarantine")
	}
}

// TestBuildFailure points the supervisor at a compiler that always
// fails: New must return a permanent fault wrapping ErrChildBuild and
// leave no orphan workspace.
func TestBuildFailure(t *testing.T) {
	before := countWorkspaces(t)
	cfg, _ := testConfig(t, "c432", "parallel")
	cfg.GoTool = "false" // exits 1 without compiling anything
	_, err := New(cfg)
	if err == nil {
		t.Fatal("New succeeded with a failing compiler")
	}
	f, ok := resilience.AsFault(err)
	if !ok || f.Kind != resilience.FaultSubprocess || !errors.Is(f, resilience.ErrChildBuild) {
		t.Fatalf("err = %v, want subprocess fault wrapping ErrChildBuild", err)
	}
	if f.Transient() {
		t.Fatal("a build failure must not be retried")
	}
	if after := countWorkspaces(t); after != before {
		t.Fatalf("build failure leaked workspaces: %d -> %d", before, after)
	}
}

// TestWorkspaceHygiene opens and closes 100 workspaces and asserts no
// udsim-native- directory survives — the temp-dir discipline Close and
// the build-failure path must both honor.
func TestWorkspaceHygiene(t *testing.T) {
	cfg, _ := testConfig(t, "c432", "parallel")
	files, err := generateChild(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := countWorkspaces(t)
	for i := 0; i < 100; i++ {
		dir, err := writeWorkspace(files)
		if err != nil {
			t.Fatal(err)
		}
		for name := range files {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
		os.RemoveAll(dir)
	}
	if after := countWorkspaces(t); after != before {
		t.Fatalf("open/close loop leaked workspaces: %d -> %d", before, after)
	}
}

// TestHandshakeMismatch rejects a child whose baked circuit hash does
// not match the supervisor's — a stale binary must never serve. The
// child is built with one hash, then the supervisor's expectation is
// swapped before the spawn so the hello check has to catch it.
func TestHandshakeMismatch(t *testing.T) {
	requireGo(t)
	cfg, _ := testConfig(t, "c432", "parallel")
	s := &Supervisor{cfg: cfg, state: StateBuilding}
	tool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	s.goTool = tool
	if err := s.build(); err != nil {
		t.Fatalf("build: %v", err)
	}
	defer s.Close()
	s.cfg.CircuitHash = "0000deadbeef"
	f := s.spawn()
	if f == nil {
		t.Fatal("handshake accepted a mismatched circuit hash")
	}
	if f.Kind != resilience.FaultProtocol {
		t.Fatalf("fault = %v, want protocol", f)
	}
	s.killChild()
}
