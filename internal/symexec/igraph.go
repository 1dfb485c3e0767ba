package symexec

import (
	"strconv"
	"unsafe"

	"sierra/internal/ir"
)

// branch labels on backward edges: walking backward across an If learns
// which way the branch went.
type branch int

const (
	branchNone branch = iota
	branchTrue
	branchFalse
)

// frame is one inline instance of a method. Frames are slab-allocated
// by the builder (pointer-stable chunks), not heap-allocated one by
// one.
type frame struct {
	id    int
	m     *ir.Method
	depth int
}

// inode is a node of the inlined action graph: either a real statement
// in a frame, or a synthetic move (parameter/return plumbing).
type inode struct {
	frame *frame
	pos   ir.Pos // valid for real statements
	// synthetic move: dst := src (frame-qualified); nil otherwise.
	synthDst, synthSrc string
	isSynth            bool
	isEntry            bool
	// stmt caches pos.Stmt() for real statements so the walker's inner
	// loop skips the block/index lookup.
	stmt ir.Stmt
	// qdst/qsrc/qcond are the statement's frame-qualified variable
	// names, resolved once at build time — the reverse transfer
	// functions would otherwise concatenate them on every path visit.
	qdst, qsrc, qcond string
}

// pred is a backward edge with its branch label.
type pred struct {
	node int
	br   branch
}

// igraph is the inlined control-flow graph of one action root.
type igraph struct {
	nodes []inode
	// CSR predecessor storage: predsOf(n) is
	// predData[predIdx[n]:predIdx[n+1]], with each node's predecessors
	// in edge insertion order — the walker's visit order is identical
	// to the old per-node append slices, in two flat arrays instead of
	// one slice header plus growth chain per node.
	predIdx  []int32
	predData []pred
	// entry is the root frame's entry node.
	entry int
	// exits are Return nodes of the root frame.
	exits []int
	// byPos maps a statement position to every node instantiating it
	// (ascending node id); the per-pos slices share one backing array.
	byPos map[ir.Pos][]int
}

// predsOf returns node's backward edges (read-only).
func (g *igraph) predsOf(n int) []pred {
	return g.predData[g.predIdx[n]:g.predIdx[n+1]]
}

// igraphLimits bounds construction.
type igraphLimits struct {
	maxDepth int
	maxNodes int
}

// buildIGraph inlines root into a flat graph with a one-shot builder
// (tests use it; the refuter keeps a persistent builder so scratch and
// slabs amortize across its actions).
func buildIGraph(root *ir.Method, callees func(ir.Pos) []*ir.Method, lim igraphLimits) *igraph {
	return newIGBuilder().build(root, callees, lim)
}

// igEdge is one backward edge buffered during construction; finalize
// packs the buffer into the graph's CSR arrays.
type igEdge struct {
	from, to int32
	br       branch
}

// igBuilder constructs inlined action graphs. It is built for reuse:
// per-build scratch (node/edge buffers, visited sets, cursors) is reset
// between builds, per-method tables (block bases) are cached for the
// builder's lifetime, and everything a finished graph retains — node
// arrays, CSR predecessors, byPos backing, frames, qualified-name
// bytes — is carved right-sized out of append-only slabs. Graphs built
// by one builder therefore share slab chunks and must share the
// builder's lifetime (per refuter; forks reference the same read-only
// graphs).
type igBuilder struct {
	g       *igraph
	callees func(ir.Pos) []*ir.Method
	lim     igraphLimits
	nframes int

	// Per-build scratch, reset by build().
	nodes     []inode
	edges     []igEdge
	exitsBuf  []int   // stack-disciplined per-frame Return lists
	nodeOfBuf []int32 // stack-disciplined per-frame pos→node tables
	onStack   map[*ir.Method]bool
	counts    map[ir.Pos]int32
	cursor    []int32
	// succBuf and seen are the successor-resolution scratch: firstOfInto
	// appends into succBuf, and epoch-stamped seen replaces the old
	// per-call visited maps (one epoch bump per call reproduces their
	// semantics exactly, including duplicates across separate calls).
	succBuf []int
	seen    []int32
	epoch   int32

	// blockBase caches, per method, the ordinal of each block's first
	// statement (one trailing total entry), so a frame's pos→node table
	// is a flat slice indexed by base[bi]+si instead of a map.
	blockBase map[*ir.Method][]int32

	// Retained output slabs (append-only; never reset — finished graphs
	// reference carved views).
	frames    []frame
	graphSlab []igraph
	nodeSlab  []inode
	idxSlab   []int32
	predSlab  []pred
	intSlab   []int
	strSlab   []byte
}

func newIGBuilder() *igBuilder {
	return &igBuilder{
		onStack:   map[*ir.Method]bool{},
		counts:    map[ir.Pos]int32{},
		blockBase: map[*ir.Method][]int32{},
	}
}

// build inlines root (and transitively its callees, as resolved by
// callees) into a flat graph. Recursion and depth overruns fall back to
// call fall-through edges, which over-approximates feasibility — the
// sound direction for refutation.
func (b *igBuilder) build(root *ir.Method, callees func(ir.Pos) []*ir.Method, lim igraphLimits) *igraph {
	if lim.maxDepth == 0 {
		lim.maxDepth = DefaultMaxDepth
	}
	if lim.maxNodes == 0 {
		lim.maxNodes = 20000
	}
	b.callees = callees
	b.lim = lim
	b.nframes = 0
	b.nodes = b.nodes[:0]
	b.edges = b.edges[:0]
	b.exitsBuf = b.exitsBuf[:0]
	b.nodeOfBuf = b.nodeOfBuf[:0]
	clear(b.onStack)

	b.graphSlab = growChunk(b.graphSlab, 1)
	b.graphSlab = append(b.graphSlab, igraph{})
	b.g = &b.graphSlab[len(b.graphSlab)-1]

	b.onStack[root] = true
	entry := b.inline(root, 0)
	delete(b.onStack, root)
	b.g.entry = entry
	b.finalize(b.exitsBuf)
	b.precompute()
	return b.g
}

// qvar frame-qualifies a variable name, carving the string out of the
// builder's byte slab (append-only, so unsafe.String is safe: the bytes
// are never moved or rewritten).
func (b *igBuilder) qvar(f *frame, v string) string {
	if v == "" {
		return ""
	}
	need := 21 + len(v)
	b.strSlab = growChunk(b.strSlab, need)
	start := len(b.strSlab)
	b.strSlab = strconv.AppendInt(b.strSlab, int64(f.id), 10)
	b.strSlab = append(b.strSlab, ':')
	b.strSlab = append(b.strSlab, v...)
	s := b.strSlab[start:]
	return unsafe.String(&s[0], len(s))
}

func (b *igBuilder) newNode(n inode) int {
	id := len(b.nodes)
	b.nodes = append(b.nodes, n)
	return id
}

func (b *igBuilder) addEdge(from, to int, br branch) {
	b.edges = append(b.edges, igEdge{from: int32(from), to: int32(to), br: br})
}

// finalize copies the scratch node array right-sized into the node
// slab, packs the buffered edges into CSR form (preserving per-node
// insertion order), and builds byPos with one shared backing array.
func (b *igBuilder) finalize(exits []int) {
	g := b.g
	n := len(b.nodes)

	b.nodeSlab = growChunk(b.nodeSlab, n)
	st := len(b.nodeSlab)
	b.nodeSlab = append(b.nodeSlab, b.nodes...)
	g.nodes = b.nodeSlab[st:len(b.nodeSlab):len(b.nodeSlab)]

	b.intSlab = growChunk(b.intSlab, len(exits))
	st = len(b.intSlab)
	b.intSlab = append(b.intSlab, exits...)
	g.exits = b.intSlab[st:len(b.intSlab):len(b.intSlab)]

	b.idxSlab = growChunk(b.idxSlab, n+1)
	st = len(b.idxSlab)
	b.idxSlab = b.idxSlab[:st+n+1]
	g.predIdx = b.idxSlab[st : st+n+1 : st+n+1]
	clear(g.predIdx)
	for _, e := range b.edges {
		g.predIdx[e.to+1]++
	}
	for i := 0; i < n; i++ {
		g.predIdx[i+1] += g.predIdx[i]
	}

	b.predSlab = growChunk(b.predSlab, len(b.edges))
	st = len(b.predSlab)
	b.predSlab = b.predSlab[:st+len(b.edges)]
	g.predData = b.predSlab[st : st+len(b.edges) : st+len(b.edges)]
	if cap(b.cursor) < n {
		b.cursor = make([]int32, n)
	} else {
		b.cursor = b.cursor[:n]
		clear(b.cursor)
	}
	for _, e := range b.edges {
		g.predData[g.predIdx[e.to]+b.cursor[e.to]] = pred{node: int(e.from), br: e.br}
		b.cursor[e.to]++
	}

	// byPos: count per position, carve per-pos views out of one backing
	// array, then fill in node order (ascending ids per pos — the same
	// order incremental appends produced).
	clear(b.counts)
	total := 0
	for i := range g.nodes {
		if g.nodes[i].pos.Method != nil {
			b.counts[g.nodes[i].pos]++
			total++
		}
	}
	b.intSlab = growChunk(b.intSlab, total)
	st = len(b.intSlab)
	b.intSlab = b.intSlab[:st+total]
	backing := b.intSlab[st : st+total : st+total]
	g.byPos = make(map[ir.Pos][]int, len(b.counts))
	off := 0
	for pos, c := range b.counts {
		g.byPos[pos] = backing[off : off : off+int(c)]
		off += int(c)
	}
	for i := range g.nodes {
		pos := g.nodes[i].pos
		if pos.Method == nil {
			continue
		}
		g.byPos[pos] = append(g.byPos[pos], i)
	}
}

// precompute resolves every node's statement and frame-qualified names
// once, keeping the walker's per-visit work free of lookups and string
// building.
func (b *igBuilder) precompute() {
	g := b.g
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.isSynth || n.isEntry || n.pos.Method == nil {
			continue
		}
		n.stmt = n.pos.Stmt()
		f := n.frame
		switch s := n.stmt.(type) {
		case *ir.Const:
			n.qdst = b.qvar(f, s.Dst)
		case *ir.Move:
			n.qdst, n.qsrc = b.qvar(f, s.Dst), b.qvar(f, s.Src)
		case *ir.New:
			n.qdst = b.qvar(f, s.Dst)
		case *ir.Load:
			n.qdst = b.qvar(f, s.Dst)
		case *ir.Store:
			n.qsrc = b.qvar(f, s.Src)
		case *ir.StaticLoad:
			n.qdst = b.qvar(f, s.Dst)
		case *ir.StaticStore:
			n.qsrc = b.qvar(f, s.Src)
		case *ir.Invoke:
			if s.Dst != "" {
				n.qdst = b.qvar(f, s.Dst)
			}
		case *ir.BinOp:
			n.qdst = b.qvar(f, s.Dst)
		case *ir.If:
			n.qcond = b.qvar(f, s.A)
		}
	}
}

// blockBases returns (caching per method) the statement ordinal of each
// block's start, with a trailing entry holding the method's statement
// total.
func (b *igBuilder) blockBases(m *ir.Method) []int32 {
	if base, ok := b.blockBase[m]; ok {
		return base
	}
	base := make([]int32, len(m.Blocks)+1)
	for bi, blk := range m.Blocks {
		base[bi+1] = base[bi] + int32(len(blk.Stmts))
	}
	b.blockBase[m] = base
	return base
}

// firstOfInto appends to succBuf the first statement node at/after
// block bi, following empty blocks. One epoch per call gives each call
// a fresh visited set, like the old per-call maps — duplicates across
// separate calls are preserved on purpose (they produce duplicate
// edges, which the walker visits twice; parity requires keeping them).
func (b *igBuilder) firstOfInto(m *ir.Method, base, nodeOf []int32, bi int) {
	b.epoch++
	if len(b.seen) < len(m.Blocks) {
		b.seen = append(b.seen, make([]int32, len(m.Blocks)-len(b.seen))...)
	}
	b.firstOfRec(m, base, nodeOf, bi)
}

func (b *igBuilder) firstOfRec(m *ir.Method, base, nodeOf []int32, bi int) {
	if b.seen[bi] == b.epoch {
		return
	}
	b.seen[bi] = b.epoch
	blk := m.Blocks[bi]
	if len(blk.Stmts) > 0 {
		b.succBuf = append(b.succBuf, int(nodeOf[base[bi]]))
		return
	}
	for _, s := range blk.Succs {
		b.firstOfRec(m, base, nodeOf, s)
	}
}

// inline instantiates m as a new frame, returning its entry node. The
// frame's Return nodes are appended to b.exitsBuf — callers snapshot
// len(b.exitsBuf) before the call, read the suffix, and truncate back;
// the lifetimes nest like a stack, so one shared buffer serves every
// frame.
func (b *igBuilder) inline(m *ir.Method, depth int) (entry int) {
	b.frames = growChunk(b.frames, 1)
	b.frames = append(b.frames, frame{id: b.nframes, m: m, depth: depth})
	f := &b.frames[len(b.frames)-1]
	b.nframes++

	// One node per statement; blocks may be empty. nodeOf is flat,
	// indexed by the method's statement ordinal (base[bi]+si), carved
	// stack-style from the shared buffer (its contents are fixed before
	// any nested inline appends, so a stale backing view stays valid).
	base := b.blockBases(m)
	total := int(base[len(m.Blocks)])
	noMark := len(b.nodeOfBuf)
	for cap(b.nodeOfBuf) < noMark+total {
		b.nodeOfBuf = append(b.nodeOfBuf[:cap(b.nodeOfBuf)], 0)
	}
	b.nodeOfBuf = b.nodeOfBuf[:noMark+total]
	nodeOf := b.nodeOfBuf[noMark : noMark+total]
	ord := 0
	for bi, blk := range m.Blocks {
		for si := range blk.Stmts {
			pos := ir.Pos{Method: m, Block: bi, Index: si}
			nodeOf[ord] = int32(b.newNode(inode{frame: f, pos: pos}))
			ord++
		}
	}
	// entry marker node preceding the first statement.
	entry = b.newNode(inode{frame: f, isEntry: true})

	if len(m.Blocks) > 0 {
		b.succBuf = b.succBuf[:0]
		b.firstOfInto(m, base, nodeOf, 0)
		for _, first := range b.succBuf {
			b.addEdge(entry, first, branchNone)
		}
	}

	// Wire statements.
	for bi, blk := range m.Blocks {
		for si, s := range blk.Stmts {
			id := int(nodeOf[base[bi]+int32(si)])
			switch st := s.(type) {
			case *ir.Return:
				b.exitsBuf = append(b.exitsBuf, id)
				continue
			case *ir.If:
				// Two successor blocks with branch labels.
				if len(blk.Succs) == 2 {
					b.succBuf = b.succBuf[:0]
					b.firstOfInto(m, base, nodeOf, blk.Succs[0])
					for _, t := range b.succBuf {
						b.addEdge(id, t, branchTrue)
					}
					b.succBuf = b.succBuf[:0]
					b.firstOfInto(m, base, nodeOf, blk.Succs[1])
					for _, t := range b.succBuf {
						b.addEdge(id, t, branchFalse)
					}
				}
				continue
			case *ir.Invoke:
				// Copy out of the scratch: the successor list must
				// survive the recursive inline below.
				nexts := append([]int(nil), b.stmtSuccs(m, blk, bi, si, base, nodeOf)...)
				inlined := b.inlineCall(f, id, st, ir.Pos{Method: m, Block: bi, Index: si}, depth, nexts)
				if !inlined {
					for _, nx := range nexts {
						b.addEdge(id, nx, branchNone)
					}
				}
				continue
			}
			for _, nx := range b.stmtSuccs(m, blk, bi, si, base, nodeOf) {
				b.addEdge(id, nx, branchNone)
			}
		}
	}
	b.nodeOfBuf = b.nodeOfBuf[:noMark]
	return entry
}

// stmtSuccs returns the forward successor nodes of statement (bi, si)
// in the builder's shared scratch buffer — valid until the next
// successor resolution.
func (b *igBuilder) stmtSuccs(m *ir.Method, blk *ir.Block, bi, si int, base, nodeOf []int32) []int {
	b.succBuf = b.succBuf[:0]
	if si+1 < len(blk.Stmts) {
		b.succBuf = append(b.succBuf, int(nodeOf[base[bi]+int32(si)+1]))
		return b.succBuf
	}
	// One epoch per successor, like the old fresh map per successor
	// (cross-successor duplicates preserved).
	for _, s := range blk.Succs {
		b.firstOfInto(m, base, nodeOf, s)
	}
	return b.succBuf
}

// inlineCall expands a call: param moves → callee entry, callee returns
// → return move → the call's successors. Returns false when nothing was
// inlined (no bodies, recursion, or depth exhausted) so the caller adds
// a fall-through edge instead.
func (b *igBuilder) inlineCall(f *frame, callNode int, inv *ir.Invoke, pos ir.Pos, depth int, nexts []int) bool {
	if depth >= b.lim.maxDepth || len(b.nodes) >= b.lim.maxNodes || b.callees == nil {
		return false
	}
	targets := b.callees(pos)
	inlinedAny := false
	for _, callee := range targets {
		if callee == nil || len(callee.Blocks) == 0 || b.onStack[callee] {
			continue
		}
		b.onStack[callee] = true
		exMark := len(b.exitsBuf)
		calleeEntry := b.inline(callee, depth+1)
		delete(b.onStack, callee)
		calleeExits := b.exitsBuf[exMark:]
		cf := b.nodes[calleeEntry].frame

		// Chain of synthetic moves: receiver then parameters.
		cur := callNode
		link := func(dst, src string) {
			n := b.newNode(inode{frame: cf, isSynth: true, synthDst: dst, synthSrc: src})
			b.addEdge(cur, n, branchNone)
			cur = n
		}
		if inv.Recv != "" && !callee.Static {
			link(b.qvar(cf, "this"), b.qvar(f, inv.Recv))
		}
		nargs := len(inv.Args)
		if len(callee.Params) < nargs {
			nargs = len(callee.Params)
		}
		for i := 0; i < nargs; i++ {
			link(b.qvar(cf, callee.Params[i]), b.qvar(f, inv.Args[i]))
		}
		b.addEdge(cur, calleeEntry, branchNone)

		// Returns: move the returned var into the call's destination.
		for _, ret := range calleeExits {
			retStmt := b.nodes[ret].pos.Stmt().(*ir.Return)
			after := ret
			if inv.Dst != "" && retStmt.Src != "" {
				mv := b.newNode(inode{frame: cf, isSynth: true,
					synthDst: b.qvar(f, inv.Dst), synthSrc: b.qvar(cf, retStmt.Src)})
				b.addEdge(ret, mv, branchNone)
				after = mv
			}
			for _, nx := range nexts {
				b.addEdge(after, nx, branchNone)
			}
		}
		b.exitsBuf = b.exitsBuf[:exMark]
		inlinedAny = true
	}
	return inlinedAny
}
