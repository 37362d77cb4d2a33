// Package opendap implements a DAP2-subset OPeNDAP server and client over
// net/http: dataset structure (DDS), attributes (DAS), NcML documents,
// binary data responses with hyperslab constraint expressions
// (var[start:stride:stop]), and the two caches the paper discusses — a
// time-window response cache (the Ontop-spatial adapter's cache, §3.2) and
// an index-aligned tile cache (the mobile-viewport cache of §5).
package opendap

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"applab/internal/netcdf"
)

// RenderDDS produces the Dataset Descriptor Structure document.
func RenderDDS(d *netcdf.Dataset) string {
	var b strings.Builder
	b.WriteString("Dataset {\n")
	for _, v := range d.Vars {
		b.WriteString("    Float64 ")
		b.WriteString(v.Name)
		for _, dn := range v.Dims {
			dim, _ := d.Dim(dn)
			fmt.Fprintf(&b, "[%s = %d]", dn, dim.Size)
		}
		b.WriteString(";\n")
	}
	fmt.Fprintf(&b, "} %s;\n", d.Name)
	return b.String()
}

// RenderDAS produces the Dataset Attribute Structure document.
func RenderDAS(d *netcdf.Dataset) string {
	var b strings.Builder
	b.WriteString("Attributes {\n")
	for _, v := range d.Vars {
		fmt.Fprintf(&b, "    %s {\n", v.Name)
		for _, k := range sortedKeys(v.Attrs) {
			fmt.Fprintf(&b, "        String %s %q;\n", k, v.Attrs[k])
		}
		b.WriteString("    }\n")
	}
	b.WriteString("    NC_GLOBAL {\n")
	for _, k := range sortedKeys(d.Attrs) {
		fmt.Fprintf(&b, "        String %s %q;\n", k, d.Attrs[k])
	}
	b.WriteString("    }\n}\n")
	return b.String()
}

// RenderNcML produces an NcML document combining structure and attributes —
// the paper's single-XML view of DDS+DAS used for metadata harvesting.
func RenderNcML(d *netcdf.Dataset) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<netcdf xmlns=\"http://www.unidata.ucar.edu/namespaces/netcdf/ncml-2.2\" location=%q>\n", d.Name)
	for _, k := range sortedKeys(d.Attrs) {
		fmt.Fprintf(&b, "  <attribute name=%q value=%q />\n", k, d.Attrs[k])
	}
	for _, dim := range d.Dims {
		fmt.Fprintf(&b, "  <dimension name=%q length=\"%d\" />\n", dim.Name, dim.Size)
	}
	for _, v := range d.Vars {
		fmt.Fprintf(&b, "  <variable name=%q shape=%q type=\"double\">\n", v.Name, strings.Join(v.Dims, " "))
		for _, k := range sortedKeys(v.Attrs) {
			fmt.Fprintf(&b, "    <attribute name=%q value=%q />\n", k, v.Attrs[k])
		}
		b.WriteString("  </variable>\n")
	}
	b.WriteString("</netcdf>\n")
	return b.String()
}

// DDSVar is one variable declaration parsed from a DDS document.
type DDSVar struct {
	Name string
	// Dims holds the dimension names in declaration order.
	Dims []string
	// Shape holds the dimension sizes in declaration order.
	Shape []int
}

// ParseDDS parses a Dataset Descriptor Structure document (the subset
// RenderDDS emits: flat Float64 arrays) into the dataset name and its
// variable declarations.
func ParseDDS(doc string) (name string, vars []DDSVar, err error) {
	lines := strings.Split(doc, "\n")
	if len(lines) == 0 || !strings.HasPrefix(strings.TrimSpace(lines[0]), "Dataset {") {
		return "", nil, fmt.Errorf("opendap: dds: missing 'Dataset {' header")
	}
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "}"):
			tail := strings.TrimSpace(line[1:])
			if !strings.HasSuffix(tail, ";") {
				return "", nil, fmt.Errorf("opendap: dds: bad footer %q", line)
			}
			name = strings.TrimSpace(strings.TrimSuffix(tail, ";"))
			if name == "" || strings.ContainsAny(name, "{}[]; \t") {
				return "", nil, fmt.Errorf("opendap: dds: bad dataset name %q", name)
			}
			return name, vars, nil
		case strings.HasPrefix(line, "Float64 "):
			decl := strings.TrimSuffix(strings.TrimPrefix(line, "Float64 "), ";")
			v := DDSVar{}
			if i := strings.IndexByte(decl, '['); i >= 0 {
				v.Name = decl[:i]
				rest := decl[i:]
				for rest != "" {
					if rest[0] != '[' {
						return "", nil, fmt.Errorf("opendap: dds: bad declaration %q", line)
					}
					end := strings.IndexByte(rest, ']')
					if end < 0 {
						return "", nil, fmt.Errorf("opendap: dds: unterminated dimension in %q", line)
					}
					body := rest[1:end]
					rest = rest[end+1:]
					dn, sz, ok := strings.Cut(body, "=")
					if !ok {
						return "", nil, fmt.Errorf("opendap: dds: bad dimension %q", body)
					}
					n, err := strconv.Atoi(strings.TrimSpace(sz))
					if err != nil || n < 0 {
						return "", nil, fmt.Errorf("opendap: dds: bad dimension size %q", sz)
					}
					v.Dims = append(v.Dims, strings.TrimSpace(dn))
					v.Shape = append(v.Shape, n)
				}
			} else {
				v.Name = decl
			}
			if v.Name == "" {
				return "", nil, fmt.Errorf("opendap: dds: unnamed variable in %q", line)
			}
			vars = append(vars, v)
		default:
			return "", nil, fmt.Errorf("opendap: dds: unrecognized line %q", line)
		}
	}
	return "", nil, fmt.Errorf("opendap: dds: missing closing '}'")
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Constraint is a parsed DAP constraint expression: a variable name plus
// optional per-dimension index ranges.
type Constraint struct {
	Var    string
	Ranges []netcdf.Range // empty means "whole array"
}

// String renders the constraint in DAP syntax.
func (c Constraint) String() string {
	var b strings.Builder
	b.WriteString(c.Var)
	for _, r := range c.Ranges {
		if r.Stride == 1 {
			fmt.Fprintf(&b, "[%d:%d]", r.Start, r.Stop)
		} else {
			fmt.Fprintf(&b, "[%d:%d:%d]", r.Start, r.Stride, r.Stop)
		}
	}
	return b.String()
}

// ParseConstraint parses "VAR[a:b][c:d:e][i]" (DAP2 hyperslab syntax).
// Bracket forms: [i] (single index), [start:stop] (stride 1), and
// [start:stride:stop].
func ParseConstraint(s string) (Constraint, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Constraint{}, fmt.Errorf("opendap: empty constraint")
	}
	i := strings.IndexByte(s, '[')
	if i < 0 {
		return Constraint{Var: s}, nil
	}
	c := Constraint{Var: s[:i]}
	if c.Var == "" {
		return Constraint{}, fmt.Errorf("opendap: constraint missing variable name")
	}
	rest := s[i:]
	for rest != "" {
		if rest[0] != '[' {
			return Constraint{}, fmt.Errorf("opendap: expected '[' in constraint at %q", rest)
		}
		end := strings.IndexByte(rest, ']')
		if end < 0 {
			return Constraint{}, fmt.Errorf("opendap: unterminated '[' in constraint")
		}
		body := rest[1:end]
		rest = rest[end+1:]
		parts := strings.Split(body, ":")
		nums := make([]int, len(parts))
		for j, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return Constraint{}, fmt.Errorf("opendap: bad index %q", p)
			}
			nums[j] = v
		}
		var r netcdf.Range
		switch len(nums) {
		case 1:
			r = netcdf.Range{Start: nums[0], Stride: 1, Stop: nums[0]}
		case 2:
			r = netcdf.Range{Start: nums[0], Stride: 1, Stop: nums[1]}
		case 3:
			r = netcdf.Range{Start: nums[0], Stride: nums[1], Stop: nums[2]}
		default:
			return Constraint{}, fmt.Errorf("opendap: bad range %q", body)
		}
		if r.Stride <= 0 || r.Start < 0 || r.Stop < r.Start {
			return Constraint{}, fmt.Errorf("opendap: invalid range %q", body)
		}
		c.Ranges = append(c.Ranges, r)
	}
	return c, nil
}

// Apply evaluates the constraint against a dataset, returning the subset.
// Missing ranges select whole dimensions.
func (c Constraint) Apply(d *netcdf.Dataset) (*netcdf.Dataset, error) {
	ranges, err := c.resolve(d)
	if err != nil {
		return nil, err
	}
	return d.Subset(c.Var, ranges)
}

// resolve checks the constraint against a dataset without subsetting it
// and returns its ranges, whole dimensions where it names none: the
// server answers a bad constraint 400 before it looks at validators.
func (c Constraint) resolve(d *netcdf.Dataset) ([]netcdf.Range, error) {
	v, ok := d.Var(c.Var)
	if !ok {
		return nil, fmt.Errorf("opendap: no variable %q in %s", c.Var, d.Name)
	}
	shape := v.Shape(d)
	ranges := c.Ranges
	if len(ranges) == 0 {
		ranges = make([]netcdf.Range, len(shape))
		for i, s := range shape {
			ranges[i] = netcdf.FullRange(s)
		}
	}
	if len(ranges) != len(shape) {
		return nil, fmt.Errorf("opendap: %s has rank %d, constraint has %d ranges",
			c.Var, len(shape), len(ranges))
	}
	if err := netcdf.CheckRanges(c.Var, shape, ranges); err != nil {
		return nil, err
	}
	return ranges, nil
}
