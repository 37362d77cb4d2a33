package segment

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sort"
	"sync"

	"applab/internal/rdf"
)

// Immutable sorted run ("ASEG1"): one flushed memtable (or one
// compaction output) as a self-describing, checksummed file that can
// be opened by reading its fixed-size footer alone — the property that
// makes cold boot O(segments), not O(dataset).
//
//	magic "ASEG1"
//	dict     nTerms terms, structurally encoded, sorted by Key
//	rows     nRows fixed 29-byte rows (s,p,o u32 | vf,vt i64 | flags u8)
//	         sorted in (S,P,O) order; flags bit0 = valid time, bit1 =
//	         tombstone
//	posPerm  nRows u32 row ids in (P,O,S) order
//	ospPerm  nRows u32 row ids in (O,S,P) order
//	sIdx     per distinct subject: (termID, start, count) into rows
//	pIdx     per distinct predicate: (termID, start, count) into posPerm
//	oIdx     per distinct object: (termID, start, count) into ospPerm
//	footer   fixed 125 bytes: section offsets/counts/CRCs, tombstone
//	         count, footer CRC, magic "ASEGF"
//
// The three index sections double as the per-segment cardinality
// footer: the count of any bound term at any position is one binary
// search away, with no row bytes read — which is what the query
// planner's StatsSource consumes. Row, permutation, and dictionary
// sections are loaded lazily (and verified against their CRCs) on
// first use, pread-style via ReadAt; opening a run reads only the
// footer.
const (
	runMagic       = "ASEG1"
	runFooterMagic = "ASEGF"
	rowSize        = 29
	idxEntrySize   = 12
	footerSize     = 125
)

const (
	rowHasVT     = 1 << 0
	rowTombstone = 1 << 1
)

// row is one dictionary-encoded triple.
type row struct {
	s, p, o uint32
	vf, vt  int64
	flags   uint8
}

// at returns the term id at position pos: 0 subject, 1 predicate, 2
// object.
func (r *row) at(pos int) uint32 {
	switch pos {
	case 0:
		return r.s
	case 1:
		return r.p
	}
	return r.o
}

// idxEntry maps a term (at one position) to a contiguous range of the
// section it indexes.
type idxEntry struct {
	term  uint32
	start uint32
	count uint32
}

type runFooter struct {
	dictOff, dictLen uint64
	nTerms           uint32
	dictCRC          uint32
	rowsOff          uint64
	nRows            uint32
	rowsCRC          uint32
	posOff           uint64
	posCRC           uint32
	ospOff           uint64
	ospCRC           uint32
	sOff             uint64
	nS               uint32
	sCRC             uint32
	pOff             uint64
	nP               uint32
	pCRC             uint32
	oOff             uint64
	nO               uint32
	oCRC             uint32
	nTombs           uint32
}

// Run is an open immutable segment.
type Run struct {
	path string
	seq  uint64
	f    *os.File
	size int64
	foot runFooter

	// mu guards the lazy section loads; once a section pointer is set
	// it is immutable and readable without the lock (set-once under mu,
	// read via loaded copies returned by the ensure* helpers).
	mu      sync.Mutex
	terms   []rdf.Term
	rows    []row
	posPerm []uint32
	ospPerm []uint32
	sIdx    []idxEntry
	pIdx    []idxEntry
	oIdx    []idxEntry
}

// encodeRun serializes adds (live triples) and tombs (tombstones) into
// a complete run image.
func encodeRun(adds, tombs []rdf.Triple) ([]byte, error) {
	n := len(adds) + len(tombs)
	if n > maxTriples {
		return nil, fmt.Errorf("segment: run of %d rows exceeds the %d cap", n, maxTriples)
	}
	// Dictionary: every distinct term, sorted by Term.Compare (Key()
	// order), so a term's id is its rank.
	id := make(map[rdf.Term]uint32, n)
	var terms []rdf.Term
	collect := func(ts []rdf.Triple) {
		for i := range ts {
			for _, t := range [3]rdf.Term{ts[i].S, ts[i].P, ts[i].O} {
				if _, ok := id[t]; !ok {
					id[t] = 0
					terms = append(terms, t)
				}
			}
		}
	}
	collect(adds)
	collect(tombs)
	slices.SortFunc(terms, rdf.Term.Compare)
	distinct := 0
	for _, t := range terms {
		// Spellings of one Key() (an IRI carrying a datatype, say) share
		// one entry.
		if distinct == 0 || terms[distinct-1].Compare(t) != 0 {
			terms[distinct] = t
			distinct++
		}
		id[t] = uint32(distinct - 1)
	}
	terms = terms[:distinct]

	rows := make([]row, 0, n)
	addRows := func(ts []rdf.Triple, extra uint8) {
		for _, t := range ts {
			r := row{s: id[t.S], p: id[t.P], o: id[t.O], flags: extra}
			if t.HasValidTime() {
				r.flags |= rowHasVT
				r.vf = t.ValidFrom.UnixNano()
				r.vt = t.ValidTo.UnixNano()
			}
			rows = append(rows, r)
		}
	}
	addRows(adds, 0)
	addRows(tombs, rowTombstone)
	return encodeRows(terms, rows), nil
}

// encodeRows serializes dictionary-encoded rows (in any order) over a
// strictly key-sorted dictionary into a complete run image. It reorders
// rows in place into (S,P,O) order.
//
// Ids are dense ranks (0..len(terms)-1), so every order the run stores
// comes from stable counting passes, not comparison sorts. Passes by o,
// then p, then s put the rows in (S,P,O) order, leaving equal (s,p,o) —
// almost always alone — in input order, and a last pass orders each such
// run by valid time and flags. OSP is that order counted by o, so ties
// keep (S,P) order; POS is OSP counted by p, so ties keep (O,S) order.
// Each pass leaves its per-term buckets in count, which are exactly the
// index section of the order it wrote.
func encodeRows(terms []rdf.Term, rows []row) []byte {
	count := make([]uint32, len(terms)+1)
	posPerm, ospPerm := make([]uint32, len(rows)), make([]uint32, len(rows))
	// Compaction hands over rows the merge cursor already ordered, so
	// they are checked before they are sorted.
	if !slices.IsSortedFunc(rows, compareRows) {
		countSort(posPerm, nil, rows, 2, count)
		countSort(ospPerm, posPerm, rows, 1, count)
		countSort(posPerm, ospPerm, rows, 0, count)
		permute(rows, posPerm)
		for i := 0; i < len(rows); {
			j := i + 1
			for j < len(rows) && rows[j].s == rows[i].s && rows[j].p == rows[i].p && rows[j].o == rows[i].o {
				j++
			}
			if j-i > 1 {
				slices.SortFunc(rows[i:j], compareRows)
			}
			i = j
		}
	}
	countSort(posPerm, nil, rows, 0, count) // the identity: this counts the S index
	sIdx := buckets(count)
	countSort(ospPerm, nil, rows, 2, count)
	oIdx := buckets(count)
	countSort(posPerm, ospPerm, rows, 1, count)
	pIdx := buckets(count)
	nTombs := 0
	for _, r := range rows {
		if r.flags&rowTombstone != 0 {
			nTombs++
		}
	}

	// Serialize the sections straight into an image of the exact size.
	dictLen := 0
	for _, t := range terms {
		dictLen += termSize(t)
	}
	img := make([]byte, 0, len(runMagic)+dictLen+(rowSize+8)*len(rows)+
		idxEntrySize*(len(sIdx)+len(pIdx)+len(oIdx))+footerSize)
	img = append(img, runMagic...)
	sum := func(off uint64) uint32 { return crc32.ChecksumIEEE(img[off:]) }
	foot := runFooter{nTerms: uint32(len(terms)), nRows: uint32(len(rows)), nTombs: uint32(nTombs),
		nS: uint32(len(sIdx)), nP: uint32(len(pIdx)), nO: uint32(len(oIdx))}
	foot.dictOff = uint64(len(img))
	for _, t := range terms {
		img = appendTerm(img, t)
	}
	foot.dictLen, foot.dictCRC = uint64(len(img))-foot.dictOff, sum(foot.dictOff)
	foot.rowsOff = uint64(len(img))
	for _, r := range rows {
		img = appendU32(img, r.s)
		img = appendU32(img, r.p)
		img = appendU32(img, r.o)
		img = appendI64(img, r.vf)
		img = appendI64(img, r.vt)
		img = append(img, r.flags)
	}
	foot.rowsCRC = sum(foot.rowsOff)
	foot.posOff = uint64(len(img))
	img = appendPerm(img, posPerm)
	foot.posCRC = sum(foot.posOff)
	foot.ospOff = uint64(len(img))
	img = appendPerm(img, ospPerm)
	foot.ospCRC = sum(foot.ospOff)
	foot.sOff = uint64(len(img))
	img = appendIdx(img, sIdx)
	foot.sCRC = sum(foot.sOff)
	foot.pOff = uint64(len(img))
	img = appendIdx(img, pIdx)
	foot.pCRC = sum(foot.pOff)
	foot.oOff = uint64(len(img))
	img = appendIdx(img, oIdx)
	foot.oCRC = sum(foot.oOff)
	return append(img, encodeFooter(foot)...)
}

func appendPerm(b []byte, perm []uint32) []byte {
	for _, v := range perm {
		b = appendU32(b, v)
	}
	return b
}

func appendIdx(b []byte, idx []idxEntry) []byte {
	for _, e := range idx {
		b = appendU32(b, e.term)
		b = appendU32(b, e.start)
		b = appendU32(b, e.count)
	}
	return b
}

// countSort writes to dst the row ids of src — 0..len(rows)-1 when src
// is nil — stably ordered by the term id at position pos (0 subject, 1
// predicate, 2 object). count has one slot per term plus one; on return
// count[t] is the end in dst of term t's bucket.
func countSort(dst, src []uint32, rows []row, pos int, count []uint32) {
	clear(count)
	for i := range rows {
		count[rows[i].at(pos)+1]++
	}
	for t := 1; t < len(count); t++ {
		count[t] += count[t-1]
	}
	place := func(i uint32) {
		t := rows[i].at(pos)
		dst[count[t]] = i
		count[t]++
	}
	if src == nil {
		for i := range rows {
			place(uint32(i))
		}
		return
	}
	for _, i := range src {
		place(i)
	}
}

// buckets returns the index section of the order the last countSort
// wrote: one entry per term that occurs, with its range of the order.
func buckets(count []uint32) []idxEntry {
	n, start := 0, uint32(0)
	for _, end := range count[:len(count)-1] {
		if end > start {
			n++
		}
		start = end
	}
	idx := make([]idxEntry, 0, n)
	start = 0
	for t, end := range count[:len(count)-1] {
		if end > start {
			idx = append(idx, idxEntry{term: uint32(t), start: start, count: end - start})
		}
		start = end
	}
	return idx
}

// permute reorders rows in place so that rows[j] is the old
// rows[perm[j]], following each cycle of perm once. It consumes perm.
func permute(rows []row, perm []uint32) {
	for i := range perm {
		if perm[i] == uint32(i) {
			continue
		}
		held, j := rows[i], i
		for {
			k := int(perm[j])
			perm[j] = uint32(j)
			if k == i {
				rows[j] = held
				break
			}
			rows[j] = rows[k]
			j = k
		}
	}
}

// compareRows orders rows the way a run's row section does: by (s,p,o),
// then valid time, then flags.
func compareRows(a, b row) int {
	switch {
	case a.s != b.s:
		return cmp.Compare(a.s, b.s)
	case a.p != b.p:
		return cmp.Compare(a.p, b.p)
	case a.o != b.o:
		return cmp.Compare(a.o, b.o)
	case a.vf != b.vf:
		return cmp.Compare(a.vf, b.vf)
	case a.vt != b.vt:
		return cmp.Compare(a.vt, b.vt)
	}
	return cmp.Compare(a.flags, b.flags)
}

func encodeFooter(f runFooter) []byte {
	b := make([]byte, 0, footerSize)
	b = appendU64(b, f.dictOff)
	b = appendU64(b, f.dictLen)
	b = appendU32(b, f.nTerms)
	b = appendU32(b, f.dictCRC)
	b = appendU64(b, f.rowsOff)
	b = appendU32(b, f.nRows)
	b = appendU32(b, f.rowsCRC)
	b = appendU64(b, f.posOff)
	b = appendU32(b, f.posCRC)
	b = appendU64(b, f.ospOff)
	b = appendU32(b, f.ospCRC)
	b = appendU64(b, f.sOff)
	b = appendU32(b, f.nS)
	b = appendU32(b, f.sCRC)
	b = appendU64(b, f.pOff)
	b = appendU32(b, f.nP)
	b = appendU32(b, f.pCRC)
	b = appendU64(b, f.oOff)
	b = appendU32(b, f.nO)
	b = appendU32(b, f.oCRC)
	b = appendU32(b, f.nTombs)
	b = appendU32(b, crc32.ChecksumIEEE(b))
	b = append(b, runFooterMagic...)
	return b
}

func decodeFooter(b []byte) (runFooter, error) {
	if len(b) != footerSize {
		return runFooter{}, errCorrupt
	}
	if string(b[footerSize-len(runFooterMagic):]) != runFooterMagic {
		return runFooter{}, fmt.Errorf("segment: bad run footer magic")
	}
	fields := b[:footerSize-len(runFooterMagic)-4]
	c := cursor{data: b[len(fields):]}
	sum, _ := c.u32()
	if crc32.ChecksumIEEE(fields) != sum {
		return runFooter{}, fmt.Errorf("segment: run footer checksum mismatch")
	}
	fc := cursor{data: fields}
	var f runFooter
	var err error
	read64 := func(dst *uint64) {
		if err == nil {
			*dst, err = fc.u64()
		}
	}
	read32 := func(dst *uint32) {
		if err == nil {
			*dst, err = fc.u32()
		}
	}
	read64(&f.dictOff)
	read64(&f.dictLen)
	read32(&f.nTerms)
	read32(&f.dictCRC)
	read64(&f.rowsOff)
	read32(&f.nRows)
	read32(&f.rowsCRC)
	read64(&f.posOff)
	read32(&f.posCRC)
	read64(&f.ospOff)
	read32(&f.ospCRC)
	read64(&f.sOff)
	read32(&f.nS)
	read32(&f.sCRC)
	read64(&f.pOff)
	read32(&f.nP)
	read32(&f.pCRC)
	read64(&f.oOff)
	read32(&f.nO)
	read32(&f.oCRC)
	read32(&f.nTombs)
	if err != nil {
		return runFooter{}, err
	}
	return f, nil
}

// OpenRun opens a run file, validating only its header magic and
// footer (magic, checksum, and exact section geometry). No section
// data is read until a query touches it.
func OpenRun(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := openRunFile(f)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	r.path = path
	return r, nil
}

func openRunFile(f *os.File) (*Run, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(runMagic)+footerSize) {
		return nil, fmt.Errorf("segment: run too short (%d bytes)", size)
	}
	head := make([]byte, len(runMagic))
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, err
	}
	if string(head) != runMagic {
		return nil, fmt.Errorf("segment: bad run magic %q", head)
	}
	fb := make([]byte, footerSize)
	if _, err := f.ReadAt(fb, size-footerSize); err != nil {
		return nil, err
	}
	foot, err := decodeFooter(fb)
	if err != nil {
		return nil, err
	}
	if err := validateGeometry(foot, uint64(size)); err != nil {
		return nil, err
	}
	return &Run{f: f, size: size, foot: foot}, nil
}

// validateGeometry pins every section to its exact expected offset, so
// declared counts can never reference bytes the file does not have and
// every byte of the file is accounted for.
func validateGeometry(f runFooter, size uint64) error {
	if f.nTerms > maxTerms || f.nRows > maxTriples {
		return fmt.Errorf("segment: run declares %d terms / %d rows, over cap", f.nTerms, f.nRows)
	}
	if f.nTombs > f.nRows {
		return fmt.Errorf("segment: run declares %d tombstones of %d rows", f.nTombs, f.nRows)
	}
	for _, n := range []uint32{f.nS, f.nP, f.nO} {
		if n > f.nRows || n > f.nTerms {
			return fmt.Errorf("segment: run index larger than its domain")
		}
	}
	want := uint64(len(runMagic))
	if f.dictOff != want {
		return errGeometry("dict", f.dictOff, want)
	}
	want += f.dictLen
	if f.rowsOff != want {
		return errGeometry("rows", f.rowsOff, want)
	}
	want += uint64(f.nRows) * rowSize
	if f.posOff != want {
		return errGeometry("posPerm", f.posOff, want)
	}
	want += uint64(f.nRows) * 4
	if f.ospOff != want {
		return errGeometry("ospPerm", f.ospOff, want)
	}
	want += uint64(f.nRows) * 4
	if f.sOff != want {
		return errGeometry("sIdx", f.sOff, want)
	}
	want += uint64(f.nS) * idxEntrySize
	if f.pOff != want {
		return errGeometry("pIdx", f.pOff, want)
	}
	want += uint64(f.nP) * idxEntrySize
	if f.oOff != want {
		return errGeometry("oIdx", f.oOff, want)
	}
	want += uint64(f.nO)*idxEntrySize + footerSize
	if size != want {
		return fmt.Errorf("segment: run is %d bytes, geometry wants %d", size, want)
	}
	return nil
}

func errGeometry(section string, got, want uint64) error {
	return fmt.Errorf("segment: %s section at %d, geometry wants %d", section, got, want)
}

// section reads and CRC-checks one section.
func (r *Run) section(off uint64, n int, sum uint32) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := r.f.ReadAt(buf, int64(off)); err != nil {
		return nil, fmt.Errorf("segment: %s: read section: %w", r.path, err)
	}
	if crc32.ChecksumIEEE(buf) != sum {
		return nil, fmt.Errorf("segment: %s: section checksum mismatch", r.path)
	}
	return buf, nil
}

// ensureDict lazily loads the term dictionary and checks that it is
// strictly sorted in key order, which is what lets readers treat term
// ids as ranks.
func (r *Run) ensureDict() ([]rdf.Term, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.terms != nil {
		return r.terms, nil
	}
	buf, err := r.section(r.foot.dictOff, int(r.foot.dictLen), r.foot.dictCRC)
	if err != nil {
		return nil, err
	}
	hint := r.foot.nTerms
	if hint > 1<<16 {
		hint = 1 << 16
	}
	terms := make([]rdf.Term, 0, hint)
	c := cursor{data: buf}
	var prev rdf.Term // neighbours in key order share datatypes and language tags
	for i := uint32(0); i < r.foot.nTerms; i++ {
		t, err := c.term(&prev)
		if err != nil {
			return nil, fmt.Errorf("segment: %s: dict term %d: %w", r.path, i, err)
		}
		if len(terms) > 0 && terms[len(terms)-1].Compare(t) >= 0 {
			return nil, fmt.Errorf("segment: %s: dict not strictly sorted", r.path)
		}
		terms, prev = append(terms, t), t
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("segment: %s: trailing dict bytes", r.path)
	}
	r.terms = terms
	return terms, nil
}

// ensureRows lazily loads and decodes the row section.
func (r *Run) ensureRows() ([]row, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rows != nil {
		return r.rows, nil
	}
	buf, err := r.section(r.foot.rowsOff, int(r.foot.nRows)*rowSize, r.foot.rowsCRC)
	if err != nil {
		return nil, err
	}
	rows := make([]row, r.foot.nRows)
	c := cursor{data: buf}
	for i := range rows {
		rows[i].s, _ = c.u32()
		rows[i].p, _ = c.u32()
		rows[i].o, _ = c.u32()
		rows[i].vf, _ = c.i64()
		rows[i].vt, _ = c.i64()
		rows[i].flags, err = c.u8()
		if err != nil {
			return nil, errCorrupt
		}
		if rows[i].s >= r.foot.nTerms || rows[i].p >= r.foot.nTerms || rows[i].o >= r.foot.nTerms {
			return nil, fmt.Errorf("segment: %s: row %d references term out of range", r.path, i)
		}
	}
	r.rows = rows
	return rows, nil
}

// ensurePerm lazily loads one of the permutation sections.
func (r *Run) ensurePerm(osp bool) ([]uint32, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dst := &r.posPerm
	off, sum := r.foot.posOff, r.foot.posCRC
	if osp {
		dst, off, sum = &r.ospPerm, r.foot.ospOff, r.foot.ospCRC
	}
	if *dst != nil {
		return *dst, nil
	}
	buf, err := r.section(off, int(r.foot.nRows)*4, sum)
	if err != nil {
		return nil, err
	}
	perm := make([]uint32, r.foot.nRows)
	c := cursor{data: buf}
	for i := range perm {
		perm[i], _ = c.u32()
		if perm[i] >= r.foot.nRows {
			return nil, fmt.Errorf("segment: %s: permutation entry out of range", r.path)
		}
	}
	*dst = perm
	return perm, nil
}

// ensureIdx lazily loads one of the three index sections. pos is 0 for
// subject, 1 for predicate, 2 for object.
func (r *Run) ensureIdx(pos int) ([]idxEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var dst *[]idxEntry
	var off uint64
	var n, sum uint32
	switch pos {
	case 0:
		dst, off, n, sum = &r.sIdx, r.foot.sOff, r.foot.nS, r.foot.sCRC
	case 1:
		dst, off, n, sum = &r.pIdx, r.foot.pOff, r.foot.nP, r.foot.pCRC
	default:
		dst, off, n, sum = &r.oIdx, r.foot.oOff, r.foot.nO, r.foot.oCRC
	}
	if *dst != nil {
		return *dst, nil
	}
	buf, err := r.section(off, int(n)*idxEntrySize, sum)
	if err != nil {
		return nil, err
	}
	idx := make([]idxEntry, n)
	c := cursor{data: buf}
	var total uint64
	for i := range idx {
		idx[i].term, _ = c.u32()
		idx[i].start, _ = c.u32()
		idx[i].count, err = c.u32()
		if err != nil {
			return nil, errCorrupt
		}
		if idx[i].term >= r.foot.nTerms {
			return nil, fmt.Errorf("segment: %s: index term out of range", r.path)
		}
		if uint64(idx[i].start)+uint64(idx[i].count) > uint64(r.foot.nRows) {
			return nil, fmt.Errorf("segment: %s: index range out of bounds", r.path)
		}
		if i > 0 && idx[i].term <= idx[i-1].term {
			return nil, fmt.Errorf("segment: %s: index not strictly sorted", r.path)
		}
		total += uint64(idx[i].count)
	}
	if total != uint64(r.foot.nRows) {
		return nil, fmt.Errorf("segment: %s: index covers %d of %d rows", r.path, total, r.foot.nRows)
	}
	r.idxStore(dst, idx)
	return idx, nil
}

func (r *Run) idxStore(dst *[]idxEntry, idx []idxEntry) { *dst = idx }

// lookupIdx binary-searches an index section for a term id.
func lookupIdx(idx []idxEntry, id uint32) (idxEntry, bool) {
	i := sort.Search(len(idx), func(i int) bool { return idx[i].term >= id })
	if i < len(idx) && idx[i].term == id {
		return idx[i], true
	}
	return idxEntry{}, false
}

// runPattern is a triple pattern resolved against one run: the
// dictionary id of every bound position and, from the index sections
// alone, the bucket of rows carrying that id there.
type runPattern struct {
	bound  [3]bool
	ids    [3]uint32
	bucket [3]idxEntry
}

// resolve translates the pattern into the run's id space. ok is false
// when a bound term does not occur at its position, so nothing in the
// run can match.
func (r *Run) resolve(s, p, o rdf.Term) (pat runPattern, ok bool, err error) {
	var terms []rdf.Term
	for pos, t := range [3]rdf.Term{s, p, o} {
		if t.IsZero() {
			continue
		}
		if terms == nil {
			if terms, err = r.ensureDict(); err != nil {
				return pat, false, err
			}
		}
		// The dictionary is sorted by Term.Compare, so the index is the id.
		id, found := slices.BinarySearchFunc(terms, t, rdf.Term.Compare)
		if !found {
			return pat, false, nil
		}
		idx, err := r.ensureIdx(pos)
		if err != nil {
			return pat, false, err
		}
		e, found := lookupIdx(idx, uint32(id))
		if !found {
			return pat, false, nil
		}
		pat.bound[pos], pat.ids[pos], pat.bucket[pos] = true, uint32(id), e
	}
	return pat, true, nil
}

// cardinality estimates the number of rows matching the pattern: the
// smallest bound-position bucket (rdf.Graph's estimator), read from the
// index sections alone. The all-wildcard estimate is the live row
// count.
func (r *Run) cardinality(s, p, o rdf.Term) (int, error) {
	pat, ok, err := r.resolve(s, p, o)
	if err != nil || !ok {
		return 0, err
	}
	est := -1
	for pos, b := range pat.bound {
		if n := int(pat.bucket[pos].count); b && (est < 0 || n < est) {
			est = n
		}
	}
	if est < 0 {
		return int(r.foot.nRows) - int(r.foot.nTombs), nil
	}
	return est, nil
}

// runScan is the exact set of a run's rows matching a pattern, as a
// range of positions in one of the run's three sort orders: perm[lo:hi]
// indexes rows, or rows[lo:hi] directly when perm is nil. Visiting the
// positions in order visits the rows in (S,P,O) order.
type runScan struct {
	terms  []rdf.Term
	rows   []row
	perm   []uint32
	lo, hi int
}

// scan narrows the pattern to a runScan. Every combination of bound
// positions is a key prefix of one sort order — {s}, {s,p}, {s,p,o} of
// SPO; {p}, {p,o} of POS; {o}, {o,s} of OSP — so the matching rows are
// contiguous there: the first bound position's bucket comes from its
// index section, each further one from a binary search inside it. No
// row is decoded and no term compared beyond resolving the pattern.
func (r *Run) scan(s, p, o rdf.Term) (sc runScan, err error) {
	if r.foot.nRows == 0 {
		return sc, nil
	}
	pat, ok, err := r.resolve(s, p, o)
	if err != nil || !ok {
		return sc, err
	}
	if sc.terms, err = r.ensureDict(); err != nil {
		return runScan{}, err
	}
	if sc.rows, err = r.ensureRows(); err != nil {
		return runScan{}, err
	}
	// first is the leading position of the order to use.
	var first int
	switch {
	case pat.bound[0] && (pat.bound[1] || !pat.bound[2]):
		first = 0
	case pat.bound[1]:
		first = 1
	case pat.bound[2]:
		first = 2
	default:
		sc.hi = len(sc.rows)
		return sc, nil
	}
	// The order led by first (SPO, POS or OSP) is keyed by the positions
	// first, first+1, first+2, modulo 3.
	if first != 0 {
		if sc.perm, err = r.ensurePerm(first == 2); err != nil {
			return runScan{}, err
		}
	}
	sc.lo = int(pat.bucket[first].start)
	sc.hi = sc.lo + int(pat.bucket[first].count)
	for level := 1; level < 3 && pat.bound[(first+level)%3]; level++ {
		pos := (first + level) % 3
		at := func(i int) uint32 {
			if sc.perm != nil {
				i = int(sc.perm[i])
			}
			return sc.rows[i].at(pos)
		}
		base, n, want := sc.lo, sc.hi-sc.lo, pat.ids[pos]
		sc.lo = base + sort.Search(n, func(i int) bool { return at(base+i) >= want })
		sc.hi = base + sort.Search(n, func(i int) bool { return at(base+i) > want })
	}
	if first == 1 && !pat.bound[2] {
		// A predicate bucket is in (O,S) order. Row ids are ranks in
		// (S,P,O) order, so sorting the ids restores it.
		sc.perm = append([]uint32(nil), sc.perm[sc.lo:sc.hi]...)
		slices.Sort(sc.perm)
		sc.lo, sc.hi = 0, len(sc.perm)
	}
	return sc, nil
}

// bytes reports the file size.
func (r *Run) bytes() int64 { return r.size }

// Rows reports the total row count (tombstones included).
func (r *Run) Rows() int { return int(r.foot.nRows) }

// Tombstones reports the tombstone row count.
func (r *Run) Tombstones() int { return int(r.foot.nTombs) }

func (r *Run) close() error { return r.f.Close() }
