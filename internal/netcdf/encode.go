package netcdf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// Binary format (all integers big-endian uint32 unless noted):
//
//	magic "ANC1"
//	nameLen, name
//	nGlobalAttrs, then per attr: keyLen, key, valLen, val
//	nDims, then per dim: nameLen, name, size
//	nVars, then per var:
//	    nameLen, name
//	    nDims, then per dim: nameLen, name
//	    nAttrs, then per attr: keyLen, key, valLen, val
//	    nValues (uint64), then values as float64 bits
//
// It is a simplified stand-in for the on-disk NetCDF classic format: enough
// to persist and stream the synthetic Copernicus products.
const magic = "ANC1"

// Write encodes the dataset to w.
func Write(w io.Writer, d *Dataset) error {
	e := &encoder{w: bufio.NewWriter(w)}
	e.str(magic)
	e.name(d.Name)
	e.attrs(d.Attrs)
	e.u32(uint32(len(d.Dims)))
	for _, dim := range d.Dims {
		e.name(dim.Name)
		e.u32(uint32(dim.Size))
	}
	e.u32(uint32(len(d.Vars)))
	for _, v := range d.Vars {
		e.name(v.Name)
		e.u32(uint32(len(v.Dims)))
		for _, dn := range v.Dims {
			e.name(dn)
		}
		e.attrs(v.Attrs)
		e.u64(uint64(len(v.Data)))
		e.floats(v.Data)
	}
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// encoder writes Write's fixed-width fields through one scratch array,
// so encoding allocates nothing per value. The first write error
// sticks and turns every later write into a no-op.
type encoder struct {
	w       *bufio.Writer
	err     error
	scratch [512]byte
}

func (e *encoder) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) str(s string) {
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *encoder) u32(v uint32) {
	e.write(binary.BigEndian.AppendUint32(e.scratch[:0], v))
}

func (e *encoder) u64(v uint64) {
	e.write(binary.BigEndian.AppendUint64(e.scratch[:0], v))
}

// name writes a length-prefixed string.
func (e *encoder) name(s string) {
	e.u32(uint32(len(s)))
	e.str(s)
}

// attrs writes an attribute map in key order.
func (e *encoder) attrs(attrs map[string]string) {
	e.u32(uint32(len(attrs)))
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.name(k)
		e.name(attrs[k])
	}
}

// floats writes values as float64 bits, a scratch array at a time.
func (e *encoder) floats(fs []float64) {
	for len(fs) > 0 && e.err == nil {
		n := min(len(fs), len(e.scratch)/8)
		for i, f := range fs[:n] {
			binary.BigEndian.PutUint64(e.scratch[i*8:], math.Float64bits(f))
		}
		e.write(e.scratch[:n*8])
		fs = fs[n:]
	}
}

// Read decodes a dataset from r.
func Read(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("netcdf: short header: %v", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("netcdf: bad magic %q", head)
	}
	readStr := func() (string, error) {
		var n uint32
		if err := binary.Read(br, binary.BigEndian, &n); err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("netcdf: string length %d too large", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	readAttrs := func() (map[string]string, error) {
		var n uint32
		if err := binary.Read(br, binary.BigEndian, &n); err != nil {
			return nil, err
		}
		// Cap the preallocation: n is attacker/corruption-controlled, the
		// real entries still arrive (or fail) one by one below.
		hint := n
		if hint > 1024 {
			hint = 1024
		}
		attrs := make(map[string]string, hint)
		for i := uint32(0); i < n; i++ {
			k, err := readStr()
			if err != nil {
				return nil, err
			}
			v, err := readStr()
			if err != nil {
				return nil, err
			}
			attrs[k] = v
		}
		return attrs, nil
	}
	name, err := readStr()
	if err != nil {
		return nil, err
	}
	d := NewDataset(name)
	if d.Attrs, err = readAttrs(); err != nil {
		return nil, err
	}
	var nDims uint32
	if err := binary.Read(br, binary.BigEndian, &nDims); err != nil {
		return nil, err
	}
	for i := uint32(0); i < nDims; i++ {
		dn, err := readStr()
		if err != nil {
			return nil, err
		}
		var size uint32
		if err := binary.Read(br, binary.BigEndian, &size); err != nil {
			return nil, err
		}
		d.AddDim(dn, int(size))
	}
	var nVars uint32
	if err := binary.Read(br, binary.BigEndian, &nVars); err != nil {
		return nil, err
	}
	for i := uint32(0); i < nVars; i++ {
		vn, err := readStr()
		if err != nil {
			return nil, err
		}
		var nd uint32
		if err := binary.Read(br, binary.BigEndian, &nd); err != nil {
			return nil, err
		}
		if nd > 1<<12 {
			return nil, fmt.Errorf("netcdf: variable %s has %d dimensions", vn, nd)
		}
		dims := make([]string, nd)
		for j := range dims {
			if dims[j], err = readStr(); err != nil {
				return nil, err
			}
		}
		attrs, err := readAttrs()
		if err != nil {
			return nil, err
		}
		var nv uint64
		if err := binary.Read(br, binary.BigEndian, &nv); err != nil {
			return nil, err
		}
		if nv > 1<<28 {
			return nil, fmt.Errorf("netcdf: variable %s too large (%d values)", vn, nv)
		}
		// Grow incrementally rather than trusting the declared count: a
		// corrupted header claiming 2^28 values over a truncated stream
		// must fail with a short read, not allocate gigabytes first.
		hint := nv
		if hint > 1<<16 {
			hint = 1 << 16
		}
		data := make([]float64, 0, hint)
		buf := make([]byte, 8)
		for j := uint64(0); j < nv; j++ {
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("netcdf: variable %s: short data: %v", vn, err)
			}
			data = append(data, math.Float64frombits(binary.BigEndian.Uint64(buf)))
		}
		if err := d.AddVar(&Variable{Name: vn, Dims: dims, Attrs: attrs, Data: data}); err != nil {
			return nil, err
		}
	}
	return d, nil
}
