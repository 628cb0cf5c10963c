package parsim

import (
	"fmt"

	"udsim/internal/activity/cone"
	"udsim/internal/circuit"
	"udsim/internal/engine"
	"udsim/internal/program"
	"udsim/internal/shard"
)

// gater is the plan-time structure and per-vector bookkeeping of the
// activity-gated execution strategy (shard.ActivityGated), attached to
// the engine core as its engine.Gate: Maurer's
// Table 3 observation — most gates are idle on most vectors — turned
// into a sound skip rule for the compiled program.
//
// The soundness argument has two halves:
//
//  1. Skipping. The plan's instructions are partitioned into gate
//     groups, and a group runs only when the union of its output nets'
//     primary-input cones intersects the set of inputs that changed
//     since the previous vector. Cones are supersets of true
//     dependence, so a skipped group's nets provably settle at their
//     previous finals. For plain (unfused) plans the grouping is fine:
//     one group per net's instruction cluster, unioned only where a
//     scratch-slot dependence crosses clusters, and each (level, shard)
//     cell is cut into contiguous per-group segments the engine
//     executes as active ranges (Engine.SetGateRuns) — so a level that
//     must run for one hot cone still skips every cold one. For
//     level-fused plans the grouping is cell-coarse: two cells share a
//     group when they write words of the same net's bit-field, and a
//     replica's seed cell joins its consumer's group (the seeds refresh
//     the replica slots the copy accumulates into).
//  2. Flattening. A skipped net's field still holds the previous
//     vector's waveform, which downstream readers and History would see.
//     Under the flat and trimmed layouts the correct field of a settled
//     net is every word equal to the settled value broadcast (time 0 is
//     the previous final and no event ever fires), so the runtime
//     rewrites skipped fields to that constant — O(words) instead of
//     the init + simulation instructions — and the whole state array
//     stays bit-identical to sequential execution. Shift-eliminated
//     layouts pack previous-vector bits at negative times and break
//     this broadcast form, which is why NewGate rejects gating for
//     cfg.Align (and cfg.Delays) compiles.
//
// The first vector after compile, ResetConsistent, a checkpoint restore
// or a state detach runs everything (valid == false); from then on the
// per-vector cost is one primary-input diff, one bitset intersection
// per group and the flatten writes — all into buffers sized once here,
// so the steady state stays allocation-free.
type gater struct {
	s     *Sim
	cones *cone.Set
	words int // primary-input bitset words

	levels  int
	workers int

	// Plan-time structure.
	cellWork  []bool  // per level*workers+shard cell: has instructions
	cellGroup []int32 // coarse path, per cell: gate group, -1 = always run
	netGroup  []int32 // per net: gate group, -1 = ungated (inputs, always-run nets)
	numGroups int
	groupCone []uint64 // group-major PI bitsets [g*words : (g+1)*words]
	initNet   []int32  // per init instruction: gated net, -1 = always run

	// Fine-path segmentation (unfused plans): each cell's slice cut into
	// contiguous per-group segments. Segment i of cell c spans
	// [segEnd[i-1], segEnd[i]) of the cell's code (0 at a cell boundary),
	// for i in [cellSegOff[c], cellSegOff[c+1]); segGrp[i] is its gate
	// group, -1 = always active.
	fine       bool
	segGrp     []int32
	segEnd     []int32
	cellSegOff []int32

	// Init-program segmentation: contiguous runs of instructions with
	// the same net attribution (-1 = always run), so the gated init is
	// O(nets) bookkeeping instead of O(instructions).
	initSegNet []int32
	initSegEnd []int32

	// Reusable per-vector buffers.
	changed     []uint64
	groupActive []bool
	runCell     []bool  // the engine's gateCell array
	runLevel    []bool  // the engine's gateLevel array
	runs        []int32 // fine path: the engine's active-range pairs
	runOff      []int32 // fine path: per-cell offsets into runs
	netFlat     []bool  // per net: field already holds the settled broadcast

	valid     bool // false forces the next vector to run everything
	allActive bool // this vector: every group active (the common hot case)

	// Cumulative gating tallies since ConfigureExec, read by Levels:
	// vectors decided, levels run, levels skipped (barrier-included).
	// Plain int64s — Decide runs on the caller's goroutine before any
	// worker is dispatched.
	decVectors, decLevelsRun, decLevelsSkipped int64
}

// Invalidate forces the next vector to run (and re-materialize) every
// group — the reset after any operation that makes the state array's
// relation to prevPI unknown.
func (g *gater) Invalidate() { g.valid = false }

// NewGate implements engine.Gater: the gating structure for a configured
// plan. Only the flat and trimmed layouts keep the broadcast form of a
// settled field that flattening relies on.
func (s *Sim) NewGate(plan *shard.Plan) (engine.Gate, error) {
	if s.cfg.Align != nil {
		return nil, fmt.Errorf("parsim: activity gating requires the flat or trimmed layout (shift elimination packs previous-vector bits that break the settled-field skip rule)")
	}
	if s.cfg.Delays != nil {
		return nil, fmt.Errorf("parsim: activity gating does not support nominal gate delays")
	}
	return s.buildGater(plan), nil
}

// Attach hands the engine the gate arrays Decide fills.
func (g *gater) Attach(e *shard.Engine) {
	e.SetGate(g.runCell, g.runLevel)
	if g.fine {
		e.SetGateRuns(g.runs, g.runOff)
	}
}

// buildGater derives the gating structure for a configured plan: the
// fine per-cone segmentation for plain plans, the cell-coarse grouping
// for level-fused ones (replica slots make sub-cell skipping unsound
// there — a skipped original would leave its replicas stale and
// unflattened, so fused cells gate as units).
func (s *Sim) buildGater(plan *shard.Plan) *gater {
	// Persistent slot → net, via the disjoint bit-field layout (V003).
	numNets := s.c.NumNets()
	slotNet := make([]int32, s.scratchStart)
	for i := range slotNet {
		slotNet[i] = -1
	}
	for n := 0; n < numNets; n++ {
		for w := int32(0); w < s.words[n]; w++ {
			slotNet[s.base[n]+w] = int32(n)
		}
	}
	if plan.Assignment().Aug == nil {
		return s.buildGaterFine(plan, slotNet)
	}
	return s.buildGaterCoarse(plan, slotNet)
}

// buildGaterFine is the unfused-plan grouping: one gate group per net's
// instruction cluster, unioned only where a scratch-slot dependence
// crosses clusters, with every cell cut into contiguous per-group
// segments for the engine's active-range execution.
func (s *Sim) buildGaterFine(plan *shard.Plan, slotNet []int32) *gater {
	workers := plan.Workers()
	levels := plan.Stats().Levels
	numNets := s.c.NumNets()
	numCells := levels * workers

	// Union-find over nets; index numNets is the virtual always-run
	// class that collects instructions no net can own.
	always := int32(numNets)
	uf := make([]int32, numNets+1)
	for i := range uf {
		uf[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	union := func(a, b int32) {
		if ra, rb := find(a), find(b); ra != rb {
			uf[ra] = rb
		}
	}

	// Pass 1 — attribution and segmentation, per cell in engine order.
	// A field-writing instruction belongs to its destination's net; a
	// scratch write belongs to the cluster that consumes it, which the
	// backward fill identifies as the next field-writing instruction.
	cellWork := make([]bool, numCells)
	owners := make([][]int32, numCells)
	var segNet []int32 // per segment: owning net, or the always class
	var segEnd []int32
	cellSegOff := make([]int32, numCells+1)
	for l := 0; l < levels; l++ {
		for w := 0; w < workers; w++ {
			c := l*workers + w
			cellSegOff[c] = int32(len(segEnd))
			code := plan.CellCode(l, w)
			if len(code) == 0 {
				continue
			}
			cellWork[c] = true
			own := make([]int32, len(code))
			cur := always
			for i := len(code) - 1; i >= 0; i-- {
				in := &code[i]
				if in.Writes() && in.Dst < s.scratchStart {
					if n := slotNet[in.Dst]; n >= 0 {
						cur = n
					} else {
						cur = always
					}
				}
				own[i] = cur
			}
			owners[c] = own
			for i := range code {
				if i == 0 || own[i] != own[i-1] {
					segNet = append(segNet, own[i])
					segEnd = append(segEnd, 0)
				}
				segEnd[len(segEnd)-1] = int32(i + 1)
			}
		}
	}
	cellSegOff[numCells] = int32(len(segEnd))

	// Pass 2 — scratch dependences. Walking each shard column in
	// execution order, a cluster that reads a scratch slot another
	// cluster last wrote gates together with the writer (cross-level
	// carry hand-offs, compaction-shared temporaries); a read with no
	// recorded writer is conservatively never gated. Scratch arenas are
	// per-worker slices of the state array, so one last-writer table
	// covers all columns without resets.
	lastW := make([]int32, plan.StateSize()-int(s.scratchStart))
	for i := range lastW {
		lastW[i] = -1
	}
	var rbuf [3]int32
	for w := 0; w < workers; w++ {
		for l := 0; l < levels; l++ {
			c := l*workers + w
			code := plan.CellCode(l, w)
			own := owners[c]
			for i := range code {
				in := &code[i]
				for _, r := range in.ReadSlots(rbuf[:0]) {
					if r < s.scratchStart {
						continue
					}
					switch lw := lastW[r-s.scratchStart]; {
					case lw < 0:
						union(own[i], always)
					case lw != own[i]:
						union(own[i], lw)
					}
				}
				if in.Writes() && in.Dst >= s.scratchStart {
					lastW[in.Dst-s.scratchStart] = own[i]
				}
			}
		}
	}

	// Compact the union-find classes into dense group ids. Nets in the
	// always class (and nets with no simulation writers — inputs) keep
	// netGroup -1: they always run and are never flattened.
	hasWriter := make([]bool, numNets)
	for _, n := range segNet {
		if n != always {
			hasWriter[n] = true
		}
	}
	aroot := find(always)
	groupOf := make(map[int32]int32)
	netGroup := make([]int32, numNets)
	var numGroups int32
	for n := 0; n < numNets; n++ {
		netGroup[n] = -1
		if !hasWriter[n] {
			continue
		}
		root := find(int32(n))
		if root == aroot {
			continue
		}
		g, ok := groupOf[root]
		if !ok {
			g = numGroups
			numGroups++
			groupOf[root] = g
		}
		netGroup[n] = g
	}
	segGrp := make([]int32, len(segNet))
	for i, n := range segNet {
		if n == always {
			segGrp[i] = -1
		} else {
			segGrp[i] = netGroup[n]
		}
	}

	g := s.newGater(slotNet, netGroup, int(numGroups), levels, workers)
	g.fine = true
	g.cellWork = cellWork
	g.segGrp = segGrp
	g.segEnd = segEnd
	g.cellSegOff = cellSegOff
	g.runs = make([]int32, 2*len(segEnd))
	g.runOff = make([]int32, numCells+1)
	return g
}

// buildGaterCoarse is the level-fused grouping: it walks the augmented
// stream, so replica and seed instructions land in the cells the engine
// actually executes them in, and whole cells gate together.
func (s *Sim) buildGaterCoarse(plan *shard.Plan, slotNet []int32) *gater {
	asg := plan.Assignment()
	workers := plan.Workers()
	code, lv, sh, levels := asg.Aug.Code, asg.Aug.Level, asg.Aug.Shard, asg.Aug.Levels
	numNets := s.c.NumNets()

	// Union-find over cells: cells sharing a net's field words gate
	// together, since a field's gap fills and carry words read words
	// written in earlier cells of the same field.
	numCells := levels * workers
	uf := make([]int32, numCells)
	for i := range uf {
		uf[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	union := func(a, b int32) {
		if ra, rb := find(a), find(b); ra != rb {
			uf[ra] = rb
		}
	}

	cellWork := make([]bool, numCells)
	netCell := make([]int32, numNets)
	for i := range netCell {
		netCell[i] = -1
	}
	for i := range code {
		cell := lv[i]*int32(workers) + sh[i]
		cellWork[cell] = true
		in := &code[i]
		if !in.Writes() || in.Dst >= s.scratchStart {
			continue // scratch, replica slots and seed moves carry no net
		}
		n := slotNet[in.Dst]
		if n < 0 {
			continue
		}
		if netCell[n] < 0 {
			netCell[n] = cell
		} else {
			union(netCell[n], cell)
		}
	}
	if asg.Aug != nil {
		// A replica accumulates from seed moves placed one level earlier
		// on its shard; skipping the seeds while running the copy would
		// leave the replica slots stale, so both cells gate together.
		for i := range asg.Aug.Replicas {
			r := &asg.Aug.Replicas[i]
			if len(r.Seeds) == 0 || r.Level == 0 {
				continue
			}
			union(r.Level*int32(workers)+r.Shard, (r.Level-1)*int32(workers)+r.Shard)
		}
	}

	groupOf := make(map[int32]int32) // union-find root cell → group
	cellGroup := make([]int32, numCells)
	for i := range cellGroup {
		cellGroup[i] = -1
	}
	netGroup := make([]int32, numNets)
	for n := range netGroup {
		netGroup[n] = -1
	}
	var numGroups int32
	for n := 0; n < numNets; n++ {
		if netCell[n] < 0 {
			continue
		}
		root := find(netCell[n])
		g, ok := groupOf[root]
		if !ok {
			g = numGroups
			numGroups++
			groupOf[root] = g
		}
		netGroup[n] = g
	}
	for c := int32(0); c < int32(numCells); c++ {
		if !cellWork[c] {
			continue
		}
		if g, ok := groupOf[find(c)]; ok {
			cellGroup[c] = g
		}
	}

	g := s.newGater(slotNet, netGroup, int(numGroups), levels, workers)
	g.cellWork = cellWork
	g.cellGroup = cellGroup
	return g
}

// newGater builds the path-independent gating state: activation cones,
// init-instruction tagging and the per-vector buffers.
func (s *Sim) newGater(slotNet, netGroup []int32, numGroups, levels, workers int) *gater {
	numNets := s.c.NumNets()

	// Group activation cones: the union over the group's output nets.
	cones := cone.ComputeOrdered(s.c, s.a.LevelOrder)
	words := cones.Words()
	groupCone := make([]uint64, numGroups*words)
	for n := 0; n < numNets; n++ {
		if g := netGroup[n]; g >= 0 {
			cones.OrInto(groupCone[int(g)*words:(int(g)+1)*words], circuit.NetID(n))
		}
	}

	// Init instructions are tagged with their destination net so the
	// gated init run skips exactly the nets the simulation skips. Init
	// reads only a field's own top word, so dropping a skipped net's
	// instructions cannot starve an active one. The tags are collapsed
	// to contiguous segments: the compiler emits a net's init
	// instructions together, so the segment count is O(nets).
	initProg, _ := s.Programs()
	initNet := make([]int32, len(initProg.Code))
	var initSegNet, initSegEnd []int32
	for i := range initProg.Code {
		in := &initProg.Code[i]
		initNet[i] = -1
		if in.Writes() && in.Dst < s.scratchStart {
			if n := slotNet[in.Dst]; n >= 0 && netGroup[n] >= 0 {
				initNet[i] = n
			}
		}
		if i == 0 || initNet[i] != initNet[i-1] {
			initSegNet = append(initSegNet, initNet[i])
			initSegEnd = append(initSegEnd, 0)
		}
		initSegEnd[len(initSegEnd)-1] = int32(i + 1)
	}

	numCells := levels * workers
	return &gater{
		s:           s,
		initSegNet:  initSegNet,
		initSegEnd:  initSegEnd,
		cones:       cones,
		words:       words,
		levels:      levels,
		workers:     workers,
		netGroup:    netGroup,
		numGroups:   numGroups,
		groupCone:   groupCone,
		initNet:     initNet,
		changed:     make([]uint64, words),
		groupActive: make([]bool, numGroups),
		runCell:     make([]bool, numCells),
		runLevel:    make([]bool, levels),
		netFlat:     make([]bool, numNets),
	}
}

// Decide computes this vector's group activity from the primary-input
// diff against the previous vector's inputs (read before WriteInputs
// overwrites them) and fills the engine gate arrays. Returns the number
// of non-empty cells skipped, for the observer.
func (g *gater) Decide(inputs []bool) (skipped int64) {
	prev := g.s.prevPI
	if !g.valid {
		// First vector after an invalidation: the state array's relation
		// to prev is unknown, so everything runs (and every field is
		// freshly materialized).
		for i := range g.groupActive {
			g.groupActive[i] = true
		}
		g.allActive = true
	} else {
		for i := range g.changed {
			g.changed[i] = 0
		}
		for i := range inputs {
			if inputs[i] != prev[i] {
				g.changed[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		all := true
		if g.words == 1 {
			// Single-word cones (≤64 primary inputs) dominate the
			// benchmark set; the inlined test keeps the per-group cost
			// at a load and an AND.
			ch := g.changed[0]
			for gi := range g.groupActive {
				a := g.groupCone[gi]&ch != 0
				g.groupActive[gi] = a
				if !a {
					all = false
				}
			}
		} else {
			for gi := range g.groupActive {
				a := cone.Intersects(g.groupCone[gi*g.words:(gi+1)*g.words], g.changed)
				g.groupActive[gi] = a
				if !a {
					all = false
				}
			}
		}
		g.allActive = all
	}
	g.valid = true
	w := g.workers
	ri := int32(0)
	for l := 0; l < g.levels; l++ {
		levelRuns := false
		base := l * w
		for k := 0; k < w; k++ {
			c := base + k
			run := false
			if !g.fine {
				if g.cellWork[c] {
					grp := g.cellGroup[c]
					run = grp < 0 || g.groupActive[grp]
					if !run {
						skipped++
					}
				}
			} else {
				// Coalesce the cell's active segments into the engine's
				// instruction ranges; a fully idle cell skips its slice,
				// a fully idle level skips its barrier.
				g.runOff[c] = ri
				open, prevEnd := int32(-1), int32(0)
				for si := g.cellSegOff[c]; si < g.cellSegOff[c+1]; si++ {
					end := g.segEnd[si]
					grp := g.segGrp[si]
					if grp < 0 || g.groupActive[grp] {
						if open < 0 {
							open = prevEnd
						}
					} else {
						skipped++
						if open >= 0 {
							g.runs[2*ri], g.runs[2*ri+1] = open, prevEnd
							ri++
							open = -1
						}
					}
					prevEnd = end
				}
				if open >= 0 {
					g.runs[2*ri], g.runs[2*ri+1] = open, prevEnd
					ri++
				}
				run = ri > g.runOff[c]
			}
			g.runCell[c] = run
			if run {
				levelRuns = true
			}
		}
		g.runLevel[l] = levelRuns
		if levelRuns {
			g.decLevelsRun++
		} else {
			g.decLevelsSkipped++
		}
	}
	if g.fine {
		g.runOff[len(g.runOff)-1] = ri
	}
	g.decVectors++
	return skipped
}

// Levels reports the cumulative level tally since ConfigureExec (see
// engine.Core.GatingLevels).
func (g *gater) Levels() (vectors, run, skipped int64) {
	return g.decVectors, g.decLevelsRun, g.decLevelsSkipped
}

// RunInit executes the init program minus the instructions that
// initialize skipped nets, as coalesced sub-slices of the original
// stream — no instruction copying, and when every group is active a
// single Exec of the whole program.
func (g *gater) RunInit() {
	s := g.s
	initProg, _ := s.Programs()
	code, st := initProg.Code, s.State()
	if g.allActive {
		program.Exec(code, st, s.cfg.WordBits)
		return
	}
	open, prevEnd := int32(-1), int32(0)
	for si := range g.initSegNet {
		end := g.initSegEnd[si]
		act := true
		if n := g.initSegNet[si]; n >= 0 {
			if grp := g.netGroup[n]; grp >= 0 {
				act = g.groupActive[grp]
			}
		}
		if act {
			if open < 0 {
				open = prevEnd
			}
		} else if open >= 0 {
			program.Exec(code[open:prevEnd], st, s.cfg.WordBits)
			open = -1
		}
		prevEnd = end
	}
	if open >= 0 {
		program.Exec(code[open:prevEnd], st, s.cfg.WordBits)
	}
}

// Flatten rewrites every skipped net's field to the broadcast of its
// settled value — exactly the words sequential execution would produce
// for a net whose cone inputs did not change. Fields that were already
// flattened by an earlier vector are left alone, so a net that stays
// idle costs nothing after its first skipped vector. Must run before
// the engine: active cells may read skipped nets' fields.
func (g *gater) Flatten() {
	if g.allActive {
		// Everything runs and rewrites its field, so no flag survives;
		// the range clear compiles to a memclr.
		for i := range g.netFlat {
			g.netFlat[i] = false
		}
		return
	}
	s := g.s
	st, mask := s.State(), s.simProg().Mask()
	for n := range g.netGroup {
		grp := g.netGroup[n]
		if grp < 0 {
			continue
		}
		if g.groupActive[grp] {
			g.netFlat[n] = false
			continue
		}
		if g.netFlat[n] {
			continue
		}
		var v uint64
		if s.prevFinal[n] {
			v = mask
		}
		for w := int32(0); w < s.words[n]; w++ {
			st[s.base[n]+w] = v
		}
		g.netFlat[n] = true
	}
}
