package segment

import (
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
	// Dictionary: every distinct term, sorted by key.
	termSet := map[string]rdf.Term{}
	collect := func(ts []rdf.Triple) {
		for _, t := range ts {
			termSet[t.S.Key()] = t.S
			termSet[t.P.Key()] = t.P
			termSet[t.O.Key()] = t.O
		}
	}
	collect(adds)
	collect(tombs)
	keys := make([]string, 0, len(termSet))
	for k := range termSet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	id := make(map[string]uint32, len(keys))
	for i, k := range keys {
		id[k] = uint32(i)
	}

	terms := make([]rdf.Term, len(keys))
	for i, k := range keys {
		terms[i] = termSet[k]
	}
	rows := make([]row, 0, n)
	addRows := func(ts []rdf.Triple, extra uint8) {
		for _, t := range ts {
			r := row{s: id[t.S.Key()], p: id[t.P.Key()], o: id[t.O.Key()], flags: extra}
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
// strictly key-sorted dictionary into a complete run image. It sorts
// rows in place.
func encodeRows(terms []rdf.Term, rows []row) []byte {
	sort.Slice(rows, func(i, j int) bool { return rowLess(rows[i], rows[j], bySPO) })
	nTombs := 0
	for _, r := range rows {
		if r.flags&rowTombstone != 0 {
			nTombs++
		}
	}

	perm := func(less func(a, b row) bool) []uint32 {
		p := make([]uint32, len(rows))
		for i := range p {
			p[i] = uint32(i)
		}
		sort.Slice(p, func(i, j int) bool { return less(rows[p[i]], rows[p[j]]) })
		return p
	}
	posPerm := perm(func(a, b row) bool { return rowLess(a, b, byPOS) })
	ospPerm := perm(func(a, b row) bool { return rowLess(a, b, byOSP) })

	index := func(termAt func(row) uint32, order []uint32) []idxEntry {
		var idx []idxEntry
		for i := 0; i < len(order); {
			t := termAt(rows[order[i]])
			j := i
			for j < len(order) && termAt(rows[order[j]]) == t {
				j++
			}
			idx = append(idx, idxEntry{term: t, start: uint32(i), count: uint32(j - i)})
			i = j
		}
		return idx
	}
	rowOrder := make([]uint32, len(rows))
	for i := range rowOrder {
		rowOrder[i] = uint32(i)
	}
	sIdx := index(func(r row) uint32 { return r.s }, rowOrder)
	pIdx := index(func(r row) uint32 { return r.p }, posPerm)
	oIdx := index(func(r row) uint32 { return r.o }, ospPerm)

	// Serialize the sections.
	dict := make([]byte, 0, 32*len(terms))
	for _, t := range terms {
		dict = appendTerm(dict, t)
	}
	rowsBuf := make([]byte, 0, rowSize*len(rows))
	for _, r := range rows {
		rowsBuf = appendU32(rowsBuf, r.s)
		rowsBuf = appendU32(rowsBuf, r.p)
		rowsBuf = appendU32(rowsBuf, r.o)
		rowsBuf = appendI64(rowsBuf, r.vf)
		rowsBuf = appendI64(rowsBuf, r.vt)
		rowsBuf = append(rowsBuf, r.flags)
	}
	permBuf := func(p []uint32) []byte {
		b := make([]byte, 0, 4*len(p))
		for _, v := range p {
			b = appendU32(b, v)
		}
		return b
	}
	posBuf, ospBuf := permBuf(posPerm), permBuf(ospPerm)
	idxBuf := func(idx []idxEntry) []byte {
		b := make([]byte, 0, idxEntrySize*len(idx))
		for _, e := range idx {
			b = appendU32(b, e.term)
			b = appendU32(b, e.start)
			b = appendU32(b, e.count)
		}
		return b
	}
	sBuf, pBuf, oBuf := idxBuf(sIdx), idxBuf(pIdx), idxBuf(oIdx)

	img := make([]byte, 0, len(runMagic)+len(dict)+len(rowsBuf)+len(posBuf)+len(ospBuf)+len(sBuf)+len(pBuf)+len(oBuf)+footerSize)
	img = append(img, runMagic...)
	foot := runFooter{nTerms: uint32(len(terms)), nRows: uint32(len(rows)), nTombs: uint32(nTombs),
		nS: uint32(len(sIdx)), nP: uint32(len(pIdx)), nO: uint32(len(oIdx))}
	foot.dictOff, foot.dictLen, foot.dictCRC = uint64(len(img)), uint64(len(dict)), crc32.ChecksumIEEE(dict)
	img = append(img, dict...)
	foot.rowsOff, foot.rowsCRC = uint64(len(img)), crc32.ChecksumIEEE(rowsBuf)
	img = append(img, rowsBuf...)
	foot.posOff, foot.posCRC = uint64(len(img)), crc32.ChecksumIEEE(posBuf)
	img = append(img, posBuf...)
	foot.ospOff, foot.ospCRC = uint64(len(img)), crc32.ChecksumIEEE(ospBuf)
	img = append(img, ospBuf...)
	foot.sOff, foot.sCRC = uint64(len(img)), crc32.ChecksumIEEE(sBuf)
	img = append(img, sBuf...)
	foot.pOff, foot.pCRC = uint64(len(img)), crc32.ChecksumIEEE(pBuf)
	img = append(img, pBuf...)
	foot.oOff, foot.oCRC = uint64(len(img)), crc32.ChecksumIEEE(oBuf)
	img = append(img, oBuf...)
	img = append(img, encodeFooter(foot)...)
	return img
}

type rowOrderKind int

const (
	bySPO rowOrderKind = iota
	byPOS
	byOSP
)

// key returns the row's term ids in the significance order of ord.
func (r *row) key(ord rowOrderKind) [3]uint32 {
	switch ord {
	case bySPO:
		return [3]uint32{r.s, r.p, r.o}
	case byPOS:
		return [3]uint32{r.p, r.o, r.s}
	default:
		return [3]uint32{r.o, r.s, r.p}
	}
}

func rowLess(a, b row, ord rowOrderKind) bool {
	ka, kb := a.key(ord), b.key(ord)
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	if a.vf != b.vf {
		return a.vf < b.vf
	}
	if a.vt != b.vt {
		return a.vt < b.vt
	}
	return a.flags < b.flags
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
	for i := uint32(0); i < r.foot.nTerms; i++ {
		t, err := c.term()
		if err != nil {
			return nil, fmt.Errorf("segment: %s: dict term %d: %w", r.path, i, err)
		}
		if len(terms) > 0 && terms[len(terms)-1].Compare(t) >= 0 {
			return nil, fmt.Errorf("segment: %s: dict not strictly sorted", r.path)
		}
		terms = append(terms, t)
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
	ord := [3]rowOrderKind{bySPO, byPOS, byOSP}[first]
	if ord != bySPO {
		if sc.perm, err = r.ensurePerm(ord == byOSP); err != nil {
			return runScan{}, err
		}
	}
	sc.lo = int(pat.bucket[first].start)
	sc.hi = sc.lo + int(pat.bucket[first].count)
	want := (&row{s: pat.ids[0], p: pat.ids[1], o: pat.ids[2]}).key(ord)
	for level := 1; level < 3 && pat.bound[(first+level)%3]; level++ {
		at := func(i int) uint32 {
			if sc.perm != nil {
				i = int(sc.perm[i])
			}
			return sc.rows[i].key(ord)[level]
		}
		base, n := sc.lo, sc.hi-sc.lo
		sc.lo = base + sort.Search(n, func(i int) bool { return at(base+i) >= want[level] })
		sc.hi = base + sort.Search(n, func(i int) bool { return at(base+i) > want[level] })
	}
	if ord == byPOS && !pat.bound[2] {
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
